"""The acceptance gate: nine criteria, one printed verdict line each.

Every test prints `[AC<n>] PASS|FAIL - <label>` before asserting, so a plain
`pytest -v -s tests/test_acceptance.py` reads as a checklist.  Tolerances and
runtime budgets are pinned here and nowhere else.
"""

from __future__ import annotations

import cmath
import itertools
import math
import time
from fractions import Fraction

import numpy as np

from polybilliard.approx import best_rational
from polybilliard.lattice import period_lattice
from polybilliard.oracle import (
    compare_spectra,
    fd_eigenvalues,
    perturbation_study,
    rasterize,
    richardson_order,
)
from polybilliard.quantize import momentum_aperiodic, spectrum
from polybilliard.shapes import (
    broken_parallelogram,
    equilateral,
    l_shape,
    parallelogram_pi3,
    rectangle,
    right_triangle_rationalized,
    square,
)
from polybilliard.swf import (
    DIRICHLET,
    NEUMANN,
    compile_swf,
    enumerate_prescriptions,
    evaluate,
    real_combinations,
    symmetry_probe,
    verify_boundary,
)
from polybilliard.unfold import Period, build_epp, genus, period_basis

SQ3 = math.sqrt(3)


def verdict(number: int, label: str, ok: bool) -> bool:
    print(f"[AC{number}] {'PASS' if ok else 'FAIL'} - {label}")
    return ok


# ---------------------------------------------------------------- helpers


def side_lattice(a: Fraction):
    """The parallelogram's side-period pair (D1, D2) and its lattice."""
    poly = parallelogram_pi3(a)
    f = poly.frame
    s = f.scalar(a)
    d1 = s * (f.unit(0) + f.unit(1))
    d2 = s * (f.unit(0) + f.unit(-1))
    inv = f.scalar(1 / a)
    basis = [Period(d1), Period(d2), Period(inv * d1), Period(inv * d2)]
    return poly, period_lattice(f, basis, pair_choice=(0, 1))


def rotated_lattice(a: Fraction):
    """The same lattice over the rotated pair (D1 - D2, D1 + D2)."""
    poly = parallelogram_pi3(a)
    f = poly.frame
    s = f.scalar(a)
    d1 = s * (f.unit(0) + f.unit(1))
    d2 = s * (f.unit(0) + f.unit(-1))
    v, u = d1 - d2, d1 + d2
    inv = f.scalar(1 / a)
    basis = [Period(v), Period(u), Period(inv * v), Period(inv * u)]
    return poly, period_lattice(f, basis, pair_choice=(0, 1))


def parallelogram_points(a: Fraction, count: int = 300) -> np.ndarray:
    rng = np.random.default_rng(7)
    s2 = float(a) * cmath.exp(1j * math.pi / 3)
    st = rng.uniform(0.02, 0.98, size=(count, 2))
    return st[:, 0] * complex(1.0, 0.0) + st[:, 1] * s2


def lshape_points(x1, y1, x2, y2, count: int = 300) -> np.ndarray:
    rng = np.random.default_rng(8)
    pts = []
    while len(pts) < count:
        x = rng.uniform(0.01, float(x2) - 0.01)
        y = rng.uniform(0.01, float(y2) - 0.01)
        if x <= float(x1) - 0.01 or y <= float(y1) - 0.01:
            pts.append(complex(x, y))
    return np.array(pts)


def match_reference(got: np.ndarray, want: np.ndarray, tol: float = 1e-12) -> bool:
    """Proportionality after normalization: got == ratio * want within tol."""
    i = int(np.argmax(np.abs(want)))
    if abs(want[i]) < 1e-9:
        return False
    ratio = got[i] / want[i]
    scale = float(np.max(np.abs(got))) or 1.0
    return float(np.max(np.abs(got - ratio * want))) <= tol * scale


def eq_three_sine(pts, A, B, sign):
    x, y = pts.real, pts.imag
    return (
        np.exp(sign * 1j * A * x) * np.sin(B * y)
        - np.exp(sign * 1j * A * (-x / 2 + SQ3 * y / 2))
        * np.sin(B * (SQ3 * x / 2 + y / 2))
        + np.exp(sign * 1j * A * (-x / 2 - SQ3 * y / 2))
        * np.sin(B * (SQ3 * x / 2 - y / 2))
    )


def eq_dirichlet_cos(pts, A, B):
    x, y = pts.real, pts.imag
    return (
        np.cos(A * x) * np.sin(B * y)
        - np.cos(A * (x / 2 - SQ3 * y / 2)) * np.sin(B * (SQ3 * x / 2 + y / 2))
        + np.cos(A * (x / 2 + SQ3 * y / 2)) * np.sin(B * (SQ3 * x / 2 - y / 2))
    )


def eq_dirichlet_sin(pts, A, B):
    x, y = pts.real, pts.imag
    return (
        np.sin(A * x) * np.sin(B * y)
        + np.sin(A * (x / 2 - SQ3 * y / 2)) * np.sin(B * (SQ3 * x / 2 + y / 2))
        - np.sin(A * (x / 2 + SQ3 * y / 2)) * np.sin(B * (SQ3 * x / 2 - y / 2))
    )


def eq_neumann_cos(pts, A, B):
    x, y = pts.real, pts.imag
    return (
        np.cos(A * x) * np.cos(B * y)
        + np.cos(A * (x / 2 - SQ3 * y / 2)) * np.cos(B * (SQ3 * x / 2 + y / 2))
        + np.cos(A * (x / 2 + SQ3 * y / 2)) * np.cos(B * (SQ3 * x / 2 - y / 2))
    )


def eq_neumann_sin(pts, A, B):
    x, y = pts.real, pts.imag
    return (
        np.sin(A * x) * np.cos(B * y)
        - np.sin(A * (x / 2 - SQ3 * y / 2)) * np.cos(B * (SQ3 * x / 2 + y / 2))
        - np.sin(A * (x / 2 + SQ3 * y / 2)) * np.cos(B * (SQ3 * x / 2 - y / 2))
    )


# -------------------------------------------------------------- criteria


def test_ac1_genus_and_period_counts():
    start = time.perf_counter()
    checks = []
    for poly, want_g, want_periods in [
        (parallelogram_pi3(Fraction(2, 3)), 2, 4),
        (l_shape(1, 1, 2, 2), 2, 4),
        (broken_parallelogram(), 5, 10),
    ]:
        checks.append(genus(poly) == want_g)
        checks.append(len(period_basis(build_epp(poly))) == want_periods)
    tri = right_triangle_rationalized()
    checks.append(genus(tri) == 250)
    checks.append(len(build_epp(tri).images) == 2000)
    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 60.0
    assert verdict(1, f"genus/period counts incl. 2000-image pattern ({elapsed:.1f}s)", ok)


def test_ac2_spectrum_closed_forms():
    start = time.perf_counter()
    ok = True
    window = [
        (m, n)
        for m in range(-20, 21)
        for n in range(-20, 21)
        if (m, n) != (0, 0)
    ]
    for a in (Fraction(1), Fraction(2, 3), Fraction(3, 5)):
        p = a.denominator
        _, side = side_lattice(a)
        _, rot = rotated_lattice(a)
        side_energies, remapped = [], []
        for m, n in window:
            e_side = momentum_aperiodic(side, m, n).energy
            want_side = (8 / 9) * math.pi**2 * p * p * (m * m + n * n - m * n)
            ok &= abs(e_side / want_side - 1.0) <= 1e-9
            e_rot = momentum_aperiodic(rot, m, n).energy
            want_rot = (2 / 9) * math.pi**2 * p * p * (3 * m * m + n * n)
            ok &= abs(e_rot / want_rot - 1.0) <= 1e-9
            side_energies.append(e_side)
            remapped.append(momentum_aperiodic(rot, m - n, m + n).energy)
        # the rotated-pair labels (m-n, m+n) reproduce the side-pair multiset
        for e_s, e_r in zip(sorted(side_energies), sorted(remapped)):
            ok &= abs(e_r / e_s - 1.0) <= 1e-9
        # the deduplicated level list agrees with the closed form label by label
        e_cut = (8 / 9) * math.pi**2 * p * p * 60
        for entry in spectrum(side, e_cut):
            m, n = entry.labels
            want = (8 / 9) * math.pi**2 * p * p * (m * m + n * n - m * n)
            ok &= abs(entry.energy / want - 1.0) <= 1e-9
    # broken rectangles: half-pi-squared integer families
    for shape, cx, cy in [
        (l_shape(1, 1, 2, 2), 1, 1),
        (l_shape(1, 1, Fraction(3, 2), 2), 2, 1),
    ]:
        epp = build_epp(shape)
        lat = period_lattice(shape.frame, period_basis(epp))
        got = sorted(momentum_aperiodic(lat, m, n).energy for m, n in window)
        want = sorted(
            0.5 * math.pi**2 * (cx * cx * m * m + cy * cy * n * n)
            for m, n in window
        )
        for e_g, e_w in zip(got, want):
            ok &= abs(e_g / e_w - 1.0) <= 1e-9
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    assert verdict(2, f"closed-form spectra over |m|,|n| <= 20 ({elapsed:.1f}s)", ok)


def test_ac3_prescription_counts():
    start = time.perf_counter()
    ok = True
    for poly, want in [
        (parallelogram_pi3(Fraction(2, 3)), 2),
        (equilateral(), 2),
        (rectangle(2, 1), 4),
        (l_shape(1, 1, 2, 2), 4),
    ]:
        epp = build_epp(poly)
        found = enumerate_prescriptions(epp)
        ok &= len(found) == want
        # exponential oracle over all sign vectors with the first sign fixed
        by_side: dict[int, list[tuple[int, int]]] = {}
        for e in epp.edges:
            by_side.setdefault(e.side, []).append((e.a, e.b))
        brute = set()
        for bits in itertools.product((1, -1), repeat=len(epp.images) - 1):
            eta = (1,) + bits
            bc = []
            for s in range(poly.n):
                rels = {eta[a - 1] * eta[b - 1] for a, b in by_side[s]}
                if len(rels) != 1:
                    bc = None
                    break
                bc.append(DIRICHLET if rels == {-1} else NEUMANN)
            if bc is not None:
                brute.add((eta, tuple(bc)))
        ok &= {(f.eta, f.bc) for f in found} == brute
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    assert verdict(3, f"prescription counts vs exponential oracle ({elapsed:.1f}s)", ok)


def test_ac4_swf_closed_forms():
    start = time.perf_counter()
    ok = True
    a = Fraction(2, 3)
    poly, lat = side_lattice(a)
    epp = build_epp(poly)
    q = momentum_aperiodic(lat, 2, -1)
    A, B = q.vector.real, q.vector.imag
    pts = parallelogram_points(a)

    dirichlet = enumerate_prescriptions(epp)[0]
    plus, minus = compile_swf(epp, dirichlet, q)
    # all image momenta share one magnitude; the branches are conjugates
    ok &= max(abs(abs(t.p) - abs(q.vector)) for t in plus.terms) <= 1e-12
    vp, vm = evaluate(plus, pts), evaluate(minus, pts)
    ok &= float(np.max(np.abs(np.conj(vp) - vm))) <= 1e-12 * float(np.max(np.abs(vp)))
    # branch sums against the three-sine forms
    ok &= match_reference(vp, eq_three_sine(pts, A, B, +1))
    ok &= match_reference(vm, eq_three_sine(pts, A, B, -1))
    # real combinations against the four trigonometric forms
    cos_f, sin_f = real_combinations((plus, minus))
    ok &= match_reference(evaluate(cos_f, pts), eq_dirichlet_sin(pts, A, B))
    ok &= match_reference(evaluate(sin_f, pts), eq_dirichlet_cos(pts, A, B))
    neumann = enumerate_prescriptions(epp)[-1]
    cos_n, sin_n = real_combinations(compile_swf(epp, neumann, q))
    ok &= match_reference(evaluate(cos_n, pts), eq_neumann_cos(pts, A, B))
    ok &= match_reference(evaluate(sin_n, pts), eq_neumann_sin(pts, A, B))
    for pres, wave in [(dirichlet, plus), (dirichlet, cos_f), (neumann, cos_n)]:
        rep = verify_boundary(wave, poly, pres, samples_per_edge=1000, tol=1e-9)
        ok &= rep.passed

    # broken-rectangle product forms, all four prescriptions
    shape = l_shape(1, 1, Fraction(3, 2), 2)
    f = shape.frame
    basis = [
        Period(f.from_xy(2, 0)),
        Period(f.from_xy(0, 2)),
        Period(f.from_xy(3, 0)),
        Period(f.from_xy(0, 4)),
    ]
    llat = period_lattice(f, basis, pair_choice=(0, 1))
    lepp = build_epp(shape)
    lq = momentum_aperiodic(llat, 1, 1)
    ok &= abs(lq.vector - complex(2 * math.pi, math.pi)) <= 1e-12
    lpts = lshape_points(1, 1, Fraction(3, 2), 2)
    x, y = lpts.real, lpts.imag
    forms = {
        (DIRICHLET, DIRICHLET): np.sin(2 * math.pi * x) * np.sin(math.pi * y),
        (NEUMANN, NEUMANN): np.cos(2 * math.pi * x) * np.cos(math.pi * y),
        (DIRICHLET, NEUMANN): np.cos(2 * math.pi * x) * np.sin(math.pi * y),
        (NEUMANN, DIRICHLET): np.sin(2 * math.pi * x) * np.cos(math.pi * y),
    }
    for pres in enumerate_prescriptions(lepp):
        combos = [c for c in real_combinations(compile_swf(lepp, pres, lq)) if not c.degenerate]
        ok &= len(combos) == 1
        live = combos[0]
        ok &= match_reference(evaluate(live, lpts), forms[(pres.bc[0], pres.bc[1])])
        rep = verify_boundary(live, shape, pres, samples_per_edge=1000, tol=1e-9)
        ok &= rep.passed
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    assert verdict(4, f"wave sums match the closed forms ({elapsed:.1f}s)", ok)


def test_ac5_rhombus_parity():
    start = time.perf_counter()
    poly, lat = side_lattice(Fraction(1))
    epp = build_epp(poly)
    dirichlet = enumerate_prescriptions(epp)[0]
    q = momentum_aperiodic(lat, 2, -1)
    cos_f, sin_f = real_combinations(compile_swf(epp, dirichlet, q))
    center = complex(0.75, SQ3 / 4)
    across_long = lambda z: cmath.exp(1j * math.pi / 3) * z.conjugate()
    across_short = lambda z: center + cmath.exp(4j * math.pi / 3) * (
        (z - center).conjugate()
    )
    checks = [
        # the sine-in-y form: odd across the short diagonal, even across the long
        symmetry_probe(sin_f, across_short, samples=200, tol=1e-9) == "odd",
        symmetry_probe(sin_f, across_long, samples=200, tol=1e-9) == "even",
        # the sine-in-x form: odd across both
        symmetry_probe(cos_f, across_short, samples=200, tol=1e-9) == "odd",
        symmetry_probe(cos_f, across_long, samples=200, tol=1e-9) == "odd",
    ]
    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 2.0
    assert verdict(5, f"rhombus parity: no even states across the short diagonal ({elapsed:.1f}s)", ok)


def test_ac6_fd_oracle_agreement():
    start = time.perf_counter()
    shape = l_shape(1, 1, 2, 2)
    levels = fd_eigenvalues(rasterize(shape, 1.0 / 128), 40)
    family = sorted(
        0.5 * math.pi**2 * (m * m + n * n)
        for m in range(1, 12)
        for n in range(1, 12)
        if 0.5 * math.pi**2 * (m * m + n * n) <= 60.0
    )
    report = compare_spectra(family, levels, rel_tol=0.02)
    ok = report.passed and len(report.pairs) == len(family)

    grounds = [
        fd_eigenvalues(rasterize(square(), h), 1)[0]
        for h in (1.0 / 16, 1.0 / 32, 1.0 / 64)
    ]
    order = richardson_order(*grounds)
    ok &= order >= 1.8
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 180.0
    assert verdict(
        6,
        f"FD matches the product family at h=1/128; order {order:.2f} ({elapsed:.1f}s)",
        ok,
    )


def test_ac7_family_incompleteness():
    start = time.perf_counter()
    k = 100
    ok = True
    # scaled energies are integers: E * (2 / pi^2) = m^2 + n^2 for the full
    # bay, (k m)^2 + n^2 for the squeezed one — matching is exact arithmetic
    for n in range(1, 21):
        base = [(m, m * m + n * n) for m in range(1, 6 * k)]
        for m in range(1, 6):
            fine = (k * m) ** 2 + n**2
            label, nearest = min(base, key=lambda t: abs(t[1] - fine))
            ok &= nearest == fine and label == k * m
            ok &= abs(fine / nearest - 1.0) < 1.0 / (k - 1)
    # at fixed n, the full-bay labels that appear in the squeezed family are
    # exactly the multiples of k
    for n in range(1, 11):
        fine = {(k * j) ** 2 + n**2 for j in range(1, 4)}
        matched = {m for m in range(1, 3 * k + 1) if m * m + n * n in fine}
        ok &= matched == {k, 2 * k, 3 * k}
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    assert verdict(
        7, f"squeezed-bay family hits only every {k}-th level ({elapsed:.1f}s)", ok
    )


def test_ac8_perturbation_trend():
    start = time.perf_counter()
    study = perturbation_study(
        l_shape(1, 1, 2, 2),
        [Fraction(1, 10), Fraction(1, 20), Fraction(1, 40)],
        count=10,
        h=1.0 / 128,
    )
    etas = [row.eta for row in study.rows]
    ok = study.monotone
    ok &= all(b > s for b, s in zip(etas, etas[1:]))
    ok &= all(row.bounds.passed for row in study.rows)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 600.0
    assert verdict(
        8,
        f"eta strictly decreasing: {', '.join(f'{e:.4f}' for e in etas)} ({elapsed:.1f}s)",
        ok,
    )


def test_ac9_rationalization():
    start = time.perf_counter()
    cap = 100
    target = math.sqrt(2)
    best = best_rational(target, cap)
    ok = best == Fraction(99, 70)
    ok &= abs(target - 99 / 70) <= 1.0 / (70 * cap)
    # brute force over every denominator: no fraction with q <= cap beats
    # 99/70 in the scaled error |q*x - p| that the 1/(qQ) bound speaks about
    brute_q = min(
        range(1, cap + 1), key=lambda qq: abs(qq * target - round(qq * target))
    )
    ok &= Fraction(round(brute_q * target), brute_q) == best
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    assert verdict(9, f"sqrt(2) -> 99/70 under cap {cap} ({elapsed:.1f}s)", ok)
