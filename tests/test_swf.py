"""Sign prescriptions and plane-wave sums against the worked closed forms."""

from __future__ import annotations

import cmath
import hashlib
import itertools
import math
from dataclasses import replace
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polybilliard.errors import (
    DegenerateCombination,
    MomentumMismatch,
    SymmetryNotAutomorphism,
    UnquantizedMomentum,
)
from polybilliard.exactgeom import load_polygon, polygon_from_spec
from polybilliard.lattice import period_lattice
from polybilliard.quantize import momentum_aperiodic
from polybilliard.shapes import (
    broken_parallelogram,
    equilateral,
    isosceles_pi5,
    l_shape,
    parallelogram_pi3,
    rectangle,
    square,
)
from polybilliard.swf import (
    DIRICHLET,
    NEUMANN,
    PlaneWaveTerm,
    SWF,
    _gradient,
    _point_in_polygon,
    compile_swf,
    enumerate_prescriptions,
    evaluate,
    grid_csv,
    grid_pgm,
    real_combinations,
    symmetry_probe,
    verify_boundary,
    verify_helmholtz,
)
from polybilliard.unfold import Period, build_epp, period_basis

SQ3 = math.sqrt(3)


# ---------------------------------------------------------------- helpers

def brute_prescriptions(epp):
    """Exponential oracle: try every sign vector with the first sign fixed."""
    count = len(epp.images)
    by_side: dict[int, list[tuple[int, int]]] = {}
    for e in epp.edges:
        by_side.setdefault(e.side, []).append((e.a, e.b))
    out = set()
    for bits in itertools.product((1, -1), repeat=count - 1):
        eta = (1,) + bits
        bc = []
        for s in range(epp.polygon.n):
            rels = {eta[a - 1] * eta[b - 1] for a, b in by_side[s]}
            if len(rels) != 1:
                bc = None
                break
            bc.append(DIRICHLET if rels == {-1} else NEUMANN)
        if bc is not None:
            out.add((eta, tuple(bc)))
    return out


def side_momentum(poly, a: Fraction, m: int, n: int):
    """Quantized momentum of the parallelogram from its side-period pair."""
    f = poly.frame
    s = f.scalar(a)
    d1 = s * (f.unit(0) + f.unit(1))
    d2 = s * (f.unit(0) + f.unit(-1))
    inv = f.scalar(1 / a)
    basis = [Period(d1), Period(d2), Period(inv * d1), Period(inv * d2)]
    lat = period_lattice(f, basis, pair_choice=(0, 1))
    return momentum_aperiodic(lat, m, n)


def parallelogram_points(a: Fraction, count: int = 200) -> np.ndarray:
    rng = np.random.default_rng(99)
    s1 = complex(1.0, 0.0)
    s2 = float(a) * cmath.exp(1j * math.pi / 3)
    st = rng.uniform(0.02, 0.98, size=(count, 2))
    return st[:, 0] * s1 + st[:, 1] * s2


def lshape_points(count: int = 200) -> np.ndarray:
    # union of the two rectangles of l_shape(1, 1, 3/2, 2)
    rng = np.random.default_rng(98)
    pts = []
    while len(pts) < count:
        x = rng.uniform(0.01, 1.49)
        y = rng.uniform(0.01, 1.99)
        if x <= 0.99 or y <= 0.99:
            pts.append(complex(x, y))
    return np.array(pts)


def direct_image_sum(epp, prescription, p: complex, branch: int, pts):
    """Eq-22-style evaluation straight from image coordinates."""
    f = epp.polygon.frame
    total = np.zeros(len(pts), dtype=complex)
    for (reflecting, rotation, t), eta in zip(epp.images, prescription.eta):
        om = cmath.exp(1j * math.pi * rotation / f.N)
        t = f.to_complex(t)
        zk = om * (np.conj(pts) if reflecting else pts) + t
        total += eta * np.exp(1j * branch * (p.real * zk.real + p.imag * zk.imag))
    return total


def assert_proportional(got, want, tol=1e-12):
    i = int(np.argmax(np.abs(want)))
    assert abs(want[i]) > 1e-9, "reference function vanishes on the sample"
    ratio = got[i] / want[i]
    scale = float(np.max(np.abs(got))) or 1.0
    assert float(np.max(np.abs(got - ratio * want))) <= tol * scale
    return ratio


def surviving(combos):
    live = [c for c in combos if not c.degenerate]
    assert len(live) == 1
    return live[0]


# ------------------------------------------------- prescription enumeration

def test_prescription_counts():
    assert len(enumerate_prescriptions(build_epp(parallelogram_pi3(Fraction(2, 3))))) == 2
    assert len(enumerate_prescriptions(build_epp(equilateral()))) == 2
    assert len(enumerate_prescriptions(build_epp(rectangle(2, 1)))) == 4
    assert len(enumerate_prescriptions(build_epp(l_shape(1, 1, Fraction(3, 2), 2)))) == 4


def test_prescription_extremes_present():
    for poly in (square(), parallelogram_pi3(Fraction(2, 3)), l_shape(1, 1, Fraction(3, 2), 2)):
        epp = build_epp(poly)
        found = enumerate_prescriptions(epp)
        bcs = [pr.bc for pr in found]
        n = poly.n
        assert (DIRICHLET,) * n in bcs
        assert (NEUMANN,) * n in bcs
        assert bcs[0] == (DIRICHLET,) * n
        assert bcs[-1] == (NEUMANN,) * n
        assert all(pr.eta[0] == 1 for pr in found)


def test_rectangle_mixed_by_parallel_pairs():
    epp = build_epp(rectangle(2, 1))
    bcs = {pr.bc for pr in enumerate_prescriptions(epp)}
    d, nn = DIRICHLET, NEUMANN
    assert bcs == {(d, d, d, d), (nn, nn, nn, nn), (d, nn, d, nn), (nn, d, nn, d)}


def test_dirichlet_signs_follow_reflection_parity():
    for poly in (square(), parallelogram_pi3(Fraction(2, 3)), equilateral()):
        epp = build_epp(poly)
        pres = enumerate_prescriptions(epp)[0]
        assert set(pres.bc) == {DIRICHLET}
        for (reflecting, _rotation, _t), eta in zip(epp.images, pres.eta):
            assert eta == (-1 if reflecting else 1)


@pytest.mark.parametrize(
    "poly",
    [square(), rectangle(2, 1), equilateral(), parallelogram_pi3(Fraction(2, 3)),
     l_shape(1, 1, Fraction(3, 2), 2), isosceles_pi5()],
    ids=["square", "rectangle", "equilateral", "parallelogram", "lshape", "isosceles"],
)
def test_enumeration_matches_brute_force(poly):
    epp = build_epp(poly)
    assert len(epp.images) <= 20
    got = {(pr.eta, pr.bc) for pr in enumerate_prescriptions(epp)}
    assert got == brute_prescriptions(epp)


def ladder_triangle(a: Fraction):
    """The triangle with angles (a, 1/2, 1/2 - a) times pi and a unit first side."""
    sides = [{"angle": str(x)} for x in (a, Fraction(1, 2), Fraction(1, 2) - a)]
    sides[0]["length"] = "1"
    return polygon_from_spec({"name": f"triangle {a}", "sides": sides})


def prescription_polygons():
    """The bundled files, nine `shapes` polygons and 19 triangles a/N.

    N runs from 6 to 44; the frames at N = 38 and 44 are float frames.
    """
    yield from (load_polygon(p) for p in sorted(POLYGONS.glob("*.json")))
    yield from (
        square(), rectangle(2, 1), rectangle(Fraction(3, 2), Fraction(2, 3)),
        l_shape(), l_shape(1, 1, Fraction(3, 2), 2), parallelogram_pi3(),
        equilateral(), isosceles_pi5(), broken_parallelogram(),
    )
    for n in (6, 8, 10, 12, 16, 20):
        for a in range(1, n // 2):
            if math.gcd(a, n) == 1:
                yield ladder_triangle(Fraction(a, n))
    for n in (38, 44):
        for a in (1, 3):
            yield ladder_triangle(Fraction(a, n))


def test_prescription_digest():
    h = hashlib.sha256()
    count = 0
    for poly in prescription_polygons():
        found = enumerate_prescriptions(build_epp(poly))
        h.update(repr([(pr.eta, pr.bc) for pr in found]).encode())
        count += 1
    assert count == 36
    assert h.hexdigest() == "f0288b58b9843b2314741c1bdd75f65b39e8b3c152b71de5d04422da0641480e"


# ------------------------------------------------------------- compilation

def square_ground():
    poly = square()
    epp = build_epp(poly)
    basis = period_basis(epp)
    lat = period_lattice(poly.frame, basis)
    q = momentum_aperiodic(lat, 1, 1)
    return poly, epp, q


def test_square_compile_and_conjugacy():
    poly, epp, q = square_ground()
    pres = enumerate_prescriptions(epp)
    plus, minus = compile_swf(epp, pres[0], q)
    assert len(plus.terms) == len(epp.images) == 4
    assert plus.energy == pytest.approx(math.pi**2, rel=1e-12)
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.05, 0.95, (50, 2)) @ np.array([1, 1j])
    vp = evaluate(plus, pts)
    vm = evaluate(minus, pts)
    assert np.max(np.abs(vp - np.conj(vm))) < 1e-12 * np.max(np.abs(vp))


def test_affine_form_matches_image_coordinates():
    # the compiled phases must reproduce plain evaluation at image points
    for poly, labels in [
        (square(), (1, 1)),
        (parallelogram_pi3(Fraction(2, 3)), (1, 2)),
    ]:
        epp = build_epp(poly)
        basis = period_basis(epp)
        lat = period_lattice(poly.frame, basis)
        q = momentum_aperiodic(lat, *labels)
        for pres in enumerate_prescriptions(epp):
            pair = compile_swf(epp, pres, q)
            rng = np.random.default_rng(11)
            raw = rng.uniform(0.1, 0.4, (1000, 2)) @ np.array([1, 1j])
            for swf in pair:
                direct = direct_image_sum(epp, pres, q.vector, swf.readout, raw)
                assert np.max(np.abs(evaluate(swf, raw) - direct)) < 1e-12 * len(
                    epp.images
                )


def test_square_ground_real_combination():
    poly, epp, q = square_ground()
    pres = enumerate_prescriptions(epp)[0]
    pair = compile_swf(epp, pres, q)
    combos = real_combinations(pair)
    live = surviving(combos)
    pts = np.random.default_rng(5).uniform(0.02, 0.98, (100, 2)) @ np.array([1, 1j])
    want = np.sin(math.pi * pts.real) * np.sin(math.pi * pts.imag)
    ratio = assert_proportional(evaluate(live, pts), want)
    assert abs(abs(ratio) - 4.0) < 1e-9
    # normalized form takes the value sin(pi/2)^2 = 1 at the center
    center = evaluate(live, np.array([0.5 + 0.5j])) / ratio
    assert center[0] == pytest.approx(1.0, rel=1e-12)


def test_vertex_values():
    for poly in (square(), parallelogram_pi3(Fraction(2, 3))):
        epp = build_epp(poly)
        basis = period_basis(epp)
        lat = period_lattice(poly.frame, basis)
        q = momentum_aperiodic(lat, 1, 1)
        found = enumerate_prescriptions(epp)
        verts = np.array(poly.vertices_float())
        two_c = len(epp.images)
        d_pair = compile_swf(epp, found[0], q)
        n_pair = compile_swf(epp, found[-1], q)
        for swf in d_pair:
            assert np.max(np.abs(evaluate(swf, verts))) < 1e-9 * two_c
        for swf in n_pair:
            assert np.max(np.abs(np.abs(evaluate(swf, verts)) - two_c)) < 1e-9 * two_c


def test_unquantized_momentum_rejected():
    _, epp, _ = square_ground()
    pres = enumerate_prescriptions(epp)[0]
    with pytest.raises(UnquantizedMomentum):
        compile_swf(epp, pres, complex(1.1, 0.3))


def test_helmholtz_report_and_mismatch():
    poly, epp, q = square_ground()
    pres = enumerate_prescriptions(epp)[0]
    plus, _ = compile_swf(epp, pres, q)
    report = verify_helmholtz(plus)
    assert report.norm_spread <= 1e-12
    assert report.passed, (report.max_residual, report.bound)
    bad = SWF(
        terms=(
            PlaneWaveTerm(eta=1, alpha=0.0, p=complex(1.0, 0.0)),
            PlaneWaveTerm(eta=1, alpha=0.0, p=complex(2.0, 0.0)),
        ),
        energy=0.5,
        readout=1,
        polygon=poly,
    )
    with pytest.raises(MomentumMismatch):
        verify_helmholtz(bad)


def test_boundary_negative_control():
    poly, epp, q = square_ground()
    pres = enumerate_prescriptions(epp)[0]
    plus, minus = compile_swf(epp, pres, q)
    good = verify_boundary(plus, poly, pres, samples_per_edge=200)
    assert good.passed and good.max_residual < 1e-9
    # an unquantized wave misses the boundary by O(1)
    off = SWF(
        terms=tuple(
            PlaneWaveTerm(eta=t.eta, alpha=t.alpha, p=t.p * 1.03)
            for t in plus.terms
        ),
        energy=plus.energy * 1.03**2,
        readout=1,
        polygon=poly,
    )
    bad = verify_boundary(off, poly, pres, samples_per_edge=200)
    assert not bad.passed and bad.max_residual > 0.1


# ------------------------------------------- parallelogram closed forms

def eq28(pts, A, B, sign):
    x, y = pts.real, pts.imag
    return (
        np.exp(sign * 1j * A * x) * np.sin(B * y)
        - np.exp(sign * 1j * A * (-x / 2 + SQ3 * y / 2))
        * np.sin(B * (SQ3 * x / 2 + y / 2))
        + np.exp(sign * 1j * A * (-x / 2 - SQ3 * y / 2))
        * np.sin(B * (SQ3 * x / 2 - y / 2))
    )


def eq30(pts, A, B):
    x, y = pts.real, pts.imag
    return (
        np.cos(A * x) * np.sin(B * y)
        - np.cos(A * (x / 2 - SQ3 * y / 2)) * np.sin(B * (SQ3 * x / 2 + y / 2))
        + np.cos(A * (x / 2 + SQ3 * y / 2)) * np.sin(B * (SQ3 * x / 2 - y / 2))
    )


def eq31(pts, A, B):
    x, y = pts.real, pts.imag
    return (
        np.sin(A * x) * np.sin(B * y)
        + np.sin(A * (x / 2 - SQ3 * y / 2)) * np.sin(B * (SQ3 * x / 2 + y / 2))
        - np.sin(A * (x / 2 + SQ3 * y / 2)) * np.sin(B * (SQ3 * x / 2 - y / 2))
    )


def eq32(pts, A, B):
    x, y = pts.real, pts.imag
    return (
        np.cos(A * x) * np.cos(B * y)
        + np.cos(A * (x / 2 - SQ3 * y / 2)) * np.cos(B * (SQ3 * x / 2 + y / 2))
        + np.cos(A * (x / 2 + SQ3 * y / 2)) * np.cos(B * (SQ3 * x / 2 - y / 2))
    )


def eq33(pts, A, B):
    x, y = pts.real, pts.imag
    return (
        np.sin(A * x) * np.cos(B * y)
        - np.sin(A * (x / 2 - SQ3 * y / 2)) * np.cos(B * (SQ3 * x / 2 + y / 2))
        - np.sin(A * (x / 2 + SQ3 * y / 2)) * np.cos(B * (SQ3 * x / 2 - y / 2))
    )


def test_parallelogram_momentum_components():
    # A and B satisfy 3aA = 2(m+n)q*pi and sqrt(3)aB = 2(m-n)q*pi
    a = Fraction(2, 3)
    poly = parallelogram_pi3(a)
    for m, n in [(1, 2), (2, -1), (1, 1)]:
        q = side_momentum(poly, a, m, n)
        A, B = q.vector.real, q.vector.imag
        assert 3 * float(a) * A == pytest.approx(2 * math.pi * (m + n) * 2, rel=1e-12)
        assert SQ3 * float(a) * B == pytest.approx(
            2 * math.pi * (m - n) * 2, rel=1e-12
        )


def test_parallelogram_dirichlet_branches_match_three_sine_form():
    a = Fraction(2, 3)
    poly = parallelogram_pi3(a)
    epp = build_epp(poly)
    pres = enumerate_prescriptions(epp)[0]
    q = side_momentum(poly, a, 1, 2)
    A, B = q.vector.real, q.vector.imag
    pts = parallelogram_points(a)
    plus, minus = compile_swf(epp, pres, q)
    # branch sum equals the three-sine form times +-2i
    got_p = evaluate(plus, pts)
    got_m = evaluate(minus, pts)
    scale = np.max(np.abs(got_p))
    assert np.max(np.abs(got_p - 2j * eq28(pts, A, B, +1))) < 1e-12 * scale
    assert np.max(np.abs(got_m + 2j * eq28(pts, A, B, -1))) < 1e-12 * scale


def test_parallelogram_real_combinations_dirichlet():
    a = Fraction(2, 3)
    poly = parallelogram_pi3(a)
    epp = build_epp(poly)
    pres = enumerate_prescriptions(epp)[0]
    q = side_momentum(poly, a, 2, -1)
    A, B = q.vector.real, q.vector.imag
    cos_f, sin_f = real_combinations(compile_swf(epp, pres, q))
    assert not cos_f.degenerate and not sin_f.degenerate
    pts = parallelogram_points(a)
    r1 = assert_proportional(evaluate(cos_f, pts), eq31(pts, A, B))
    r2 = assert_proportional(evaluate(sin_f, pts), eq30(pts, A, B))
    assert r1 == pytest.approx(-2.0, rel=1e-9)
    assert r2 == pytest.approx(2.0, rel=1e-9)


def test_parallelogram_partial_degeneracy_is_flagged():
    # labels whose sine-type combination cancels identically: the survivor
    # is kept and the vanishing one comes back flagged, not raised
    a = Fraction(2, 3)
    poly = parallelogram_pi3(a)
    epp = build_epp(poly)
    pres = enumerate_prescriptions(epp)[0]
    q = side_momentum(poly, a, 1, 2)
    cos_f, sin_f = real_combinations(compile_swf(epp, pres, q))
    assert cos_f.degenerate and not sin_f.degenerate
    pts = parallelogram_points(a)
    A, B = q.vector.real, q.vector.imag
    assert_proportional(evaluate(sin_f, pts), eq30(pts, A, B))


def test_parallelogram_real_combinations_neumann():
    a = Fraction(2, 3)
    poly = parallelogram_pi3(a)
    epp = build_epp(poly)
    pres = enumerate_prescriptions(epp)[-1]
    assert set(pres.bc) == {NEUMANN}
    q = side_momentum(poly, a, 2, -1)
    A, B = q.vector.real, q.vector.imag
    cos_f, sin_f = real_combinations(compile_swf(epp, pres, q))
    pts = parallelogram_points(a)
    assert_proportional(evaluate(cos_f, pts), eq32(pts, A, B))
    assert_proportional(evaluate(sin_f, pts), eq33(pts, A, B))


def test_parallelogram_boundary_residuals():
    a = Fraction(2, 3)
    poly = parallelogram_pi3(a)
    epp = build_epp(poly)
    q = side_momentum(poly, a, 2, -1)
    for pres in enumerate_prescriptions(epp):
        for swf in compile_swf(epp, pres, q):
            rep = verify_boundary(swf, poly, pres, samples_per_edge=1000)
            assert rep.passed, rep.entries


def test_zero_transverse_label_degenerates():
    # equal labels force B = 0: every Dirichlet term vanishes identically
    a = Fraction(2, 3)
    poly = parallelogram_pi3(a)
    epp = build_epp(poly)
    pres = enumerate_prescriptions(epp)[0]
    q = side_momentum(poly, a, 1, 1)
    assert abs(q.vector.imag) < 1e-12
    pair = compile_swf(epp, pres, q)
    pts = parallelogram_points(a, 50)
    assert np.max(np.abs(evaluate(pair[0], pts))) < 1e-9
    with pytest.raises(DegenerateCombination):
        real_combinations(pair)


# --------------------------------------------------------- rhombus parity

def rhombus_combos():
    a = Fraction(1)
    poly = parallelogram_pi3(a)
    epp = build_epp(poly)
    pres = enumerate_prescriptions(epp)[0]
    q = side_momentum(poly, a, 2, -1)
    return real_combinations(compile_swf(epp, pres, q))


def test_rhombus_parities():
    cos_f, sin_f = rhombus_combos()
    center = complex(0.75, SQ3 / 4)
    long_diag = lambda z: cmath.exp(1j * math.pi / 3) * z.conjugate()
    short_diag = lambda z: center + cmath.exp(4j * math.pi / 3) * (
        (z - center).conjugate()
    )
    # cos-mode carries the sine-in-x form, sin-mode the cosine-in-x one
    assert symmetry_probe(cos_f, short_diag) == "odd"
    assert symmetry_probe(cos_f, long_diag) == "odd"
    assert symmetry_probe(sin_f, short_diag) == "odd"
    assert symmetry_probe(sin_f, long_diag) == "even"


def test_symmetry_probe_square_and_errors():
    poly, epp, q = square_ground()
    pres = enumerate_prescriptions(epp)[0]
    live = surviving(real_combinations(compile_swf(epp, pres, q)))
    swap_xy = lambda z: 1j * z.conjugate()
    assert symmetry_probe(live, swap_xy) == "even"
    with pytest.raises(SymmetryNotAutomorphism):
        symmetry_probe(live, lambda z: z + 0.1)


# --------------------------------------------------- broken rectangle forms

def lshape_setup():
    poly = l_shape(1, 1, Fraction(3, 2), 2)
    f = poly.frame
    basis = [
        Period(f.from_xy(2, 0)),
        Period(f.from_xy(0, 2)),
        Period(f.from_xy(3, 0)),
        Period(f.from_xy(0, 4)),
    ]
    lat = period_lattice(f, basis, pair_choice=(0, 1))
    epp = build_epp(poly)
    return poly, epp, momentum_aperiodic(lat, 1, 1)


def test_broken_rectangle_products():
    poly, epp, q = lshape_setup()
    assert q.vector == pytest.approx(complex(2 * math.pi, math.pi), abs=1e-12)
    pts = lshape_points()
    x, y = pts.real, pts.imag
    forms = {
        (DIRICHLET, DIRICHLET): np.sin(2 * math.pi * x) * np.sin(math.pi * y),
        (NEUMANN, NEUMANN): np.cos(2 * math.pi * x) * np.cos(math.pi * y),
        (DIRICHLET, NEUMANN): np.cos(2 * math.pi * x) * np.sin(math.pi * y),
        (NEUMANN, DIRICHLET): np.sin(2 * math.pi * x) * np.cos(math.pi * y),
    }
    found = enumerate_prescriptions(epp)
    assert len(found) == 4
    for pres in found:
        live = surviving(real_combinations(compile_swf(epp, pres, q)))
        want = forms[(pres.bc[0], pres.bc[1])]
        assert_proportional(evaluate(live, pts), want)
        rep = verify_boundary(live, poly, pres, samples_per_edge=500)
        assert rep.passed, (pres.bc, rep.max_residual)


def test_evaluate_accepts_xy_pairs():
    poly, epp, q = square_ground()
    pres = enumerate_prescriptions(epp)[0]
    plus, _ = compile_swf(epp, pres, q)
    a = evaluate(plus, [(0.3, 0.6)])
    b = evaluate(plus, [0.3 + 0.6j])
    assert a[0] == pytest.approx(b[0], abs=1e-15)


# ----------------------------------------------------------------- export

def test_grid_exports():
    poly = l_shape(1, 1, 2, 2)
    epp = build_epp(poly)
    basis = period_basis(epp)
    lat = period_lattice(poly.frame, basis)
    q = momentum_aperiodic(lat, 1, 1)
    pres = enumerate_prescriptions(epp)[0]
    plus, _ = compile_swf(epp, pres, q)
    text = grid_csv(plus, 8, 8)
    lines = text.strip().split("\n")
    assert lines[0] == "x,y,re,im,abs2"
    assert len(lines) == 65
    # the bay corner lies outside the polygon: zeroed row
    assert any(line.startswith("2,") and line.endswith(",0,0,0") for line in lines)
    img = grid_pgm(plus, 16, 12)
    assert img.startswith(b"P5 16 12 255\n")
    assert len(img) == len(b"P5 16 12 255\n") + 16 * 12
    assert max(img[-16 * 12 :]) == 255


# ------------------------------------------------------------ grid bytes

POLYGONS = Path(__file__).resolve().parent.parent / "polygons"
GRID_SIZES = ((80, 60), (37, 91), (2, 2))
GRID_SHAPES = {
    "square": square,
    "l_shape": lambda: l_shape(1, 1, 2, 2),
    "parallelogram_pi3": parallelogram_pi3,
    "equilateral": equilateral,
}


def test_broken_rectangle_is_the_l_shape():
    # the bundled file is l_shape(1, 1, 2, 2), so GRID_SHAPES covers its waves
    disk = load_polygon(POLYGONS / "broken_rectangle.json")
    shape = l_shape(1, 1, 2, 2)
    assert (disk.angles, disk.lengths, disk.verts) == (shape.angles, shape.lengths, shape.verts)


def row_sample_grid(swf, width, height):
    """The row-by-row sampler that the whole-grid one replaced: one
    point-in-polygon test and one evaluation per grid row."""
    verts = np.asarray(swf.polygon.vertices_float())
    gx = np.linspace(verts.real.min(), verts.real.max(), width)
    gy = np.linspace(verts.imag.min(), verts.imag.max(), height)
    rows = []
    for y in gy:
        inside = _point_in_polygon(gx, np.full(width, y), verts)
        rows.append(np.where(inside, evaluate(swf, gx + 1j * y), 0.0))
    return gx, gy, rows


def row_grid_csv(swf, width, height) -> str:
    """Oracle for `grid_csv`: every field of every point formatted on its own."""
    gx, gy, rows = row_sample_grid(swf, width, height)
    lines = ["x,y,re,im,abs2"]
    for y, vals in zip(gy, rows):
        for x, v in zip(gx, vals):
            c = complex(v)
            lines.append(
                f"{x:.12g},{y:.12g},{c.real:.12g},{c.imag:.12g},"
                f"{abs(c) ** 2:.12g}"
            )
    return "\n".join(lines) + "\n"


def row_grid_pgm(swf, width, height) -> bytes:
    """Oracle for `grid_pgm` on the row sampler."""
    _gx, _gy, rows = row_sample_grid(swf, width, height)
    img = np.abs(np.array(rows[::-1])) ** 2
    peak = img.max() or 1.0
    data = np.clip(img / peak * 255, 0, 255).astype(np.uint8)
    return f"P5 {width} {height} 255\n".encode() + data.tobytes()


def wave_family(poly, labels):
    """Both branches and every real combination of every prescription."""
    epp = build_epp(poly)
    lat = period_lattice(poly.frame, period_basis(epp))
    q = momentum_aperiodic(lat, *labels)
    waves = []
    for pres in enumerate_prescriptions(epp):
        pair = compile_swf(epp, pres, q)
        waves.extend(pair)
        try:
            waves.extend(real_combinations(pair))
        except DegenerateCombination:
            pass
    return waves


def samples_rounding_noise(wave, width, height):
    """True when an inside grid point holds a cancellation residue rather
    than a value: 0 < |Psi| < 1e-10.  Such points lie on a Dirichlet side
    or a nodal line, and their 12 significant digits are the last bits of
    the host's exp/sin/cos, not an output of the code."""
    _gx, _gy, rows = row_sample_grid(wave, width, height)
    a = np.abs(np.array(rows))
    return bool(((a > 0) & (a < 1e-10)).any())


@cache
def digest_waves(name):
    """The waves of labels (2, 3) that sample no rounding noise on the
    80x60 grid.  Both branches and both real modes remain among the four
    shapes."""
    waves = wave_family(GRID_SHAPES[name](), (2, 3))
    return tuple(w for w in waves if not samples_rounding_noise(w, 80, 60))


# SHA-256 over digest_waves(name) of grid_csv then grid_pgm at 80x60,
# recorded on the row-by-row sampler.  On this grid the noise of these
# shapes sits on the bottom side only, in the waves left out above; the
# 37x91 and 2x2 grids also sample it on nodal lines and at corners, so
# their bytes are compared with the row sampler instead of being pinned.
GRID_SHA256 = {
    "equilateral": "a7a71c51349dbf662e1db54ef86935ddb44355288eac01262a9e0bb9bcff02b7",
    "l_shape": "de85e8ae7f09e1418323351a55c5130dbdbbf355622acdb7e800ca06d3da2ab8",
    "parallelogram_pi3": "3812993ca8b6013e8b3b24828ab042a380d35c1f954953b8776d247aefb054c0",
    "square": "292078848dabbc32c084b54b87b610cf60d8684039cfd2a6d575dd60230d30a8",
}


@pytest.mark.parametrize("name", sorted(GRID_SHAPES))
def test_grid_digest(name):
    h = hashlib.sha256()
    for wave in digest_waves(name):
        h.update(grid_csv(wave, 80, 60).encode())
        h.update(grid_pgm(wave, 80, 60))
    assert h.hexdigest() == GRID_SHA256[name]


@pytest.mark.parametrize("size", GRID_SIZES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("name", sorted(GRID_SHAPES))
def test_grid_bytes_match_row_sampler_on_shapes(name, size):
    # every wave of labels (2, 3), the ones that sample noise included
    for wave in wave_family(GRID_SHAPES[name](), (2, 3)):
        assert grid_csv(wave, *size) == row_grid_csv(wave, *size)
        assert grid_pgm(wave, *size) == row_grid_pgm(wave, *size)


def ref_evaluate(swf, points):
    """The four-way evaluation that one loop over the terms replaced: a
    complex sum for the sign branches, cosines or sines for the real ones."""
    pts = np.asarray(points)
    x, y = pts.real, pts.imag
    cplx = swf.readout in (1, -1)
    total = np.zeros(pts.shape, dtype=complex if cplx else float)
    for term in swf.terms:
        phase = term.alpha + term.p.real * x + term.p.imag * y
        if cplx:
            total = total + term.eta * np.exp(1j * swf.readout * phase)
        elif swf.readout == "cos":
            total = total + term.eta * np.cos(phase)
        else:
            total = total + term.eta * np.sin(phase)
    return 1.0 * total  # the unit amplitude factor it carried


def ref_gradient(swf, points):
    """The four-way analytic gradient that one loop over the terms replaced."""
    pts = np.asarray(points)
    x, y = pts.real, pts.imag
    cplx = swf.readout in (1, -1)
    gx = np.zeros(pts.shape, dtype=complex if cplx else float)
    gy = np.zeros_like(gx)
    for term in swf.terms:
        phase = term.alpha + term.p.real * x + term.p.imag * y
        if cplx:
            d = term.eta * 1j * swf.readout * np.exp(1j * swf.readout * phase)
        elif swf.readout == "cos":
            d = -term.eta * np.sin(phase)
        else:
            d = term.eta * np.cos(phase)
        gx = gx + term.p.real * d
        gy = gy + term.p.imag * d
    return 1.0 * gx, 1.0 * gy


def readout_points(poly):
    """The 80x60 and 37x91 bounding grids and `verify_boundary`'s default
    edge samples."""
    verts = np.asarray(poly.vertices_float())
    grids = []
    for width, height in ((80, 60), (37, 91)):
        gx = np.linspace(verts.real.min(), verts.real.max(), width)
        gy = np.linspace(verts.imag.min(), verts.imag.max(), height)
        grids.append(gx + 1j * gy[:, None])
    ts = (np.arange(1000) + 0.5) / 1000
    edges = [a + ts * (b - a) for a, b in zip(verts, np.roll(verts, -1))]
    return [*grids, np.concatenate(edges)]


@pytest.mark.parametrize("name", sorted(GRID_SHAPES))
def test_readouts_match_four_way_formulas_bitwise(name):
    # bytes, not values: a -1 read-out taken as the conjugate of the +1 sum
    # agrees in value but writes -0 for the exact zeros of a Dirichlet side
    poly = GRID_SHAPES[name]()
    points = readout_points(poly)
    for wave in wave_family(poly, (2, 3)):
        for readout in (1, -1, "cos", "sin"):
            w = replace(wave, readout=readout)
            for pts in points:
                got = (evaluate(w, pts), *_gradient(w, pts))
                want = (ref_evaluate(w, pts), *ref_gradient(w, pts))
                for g, r in zip(got, want):
                    assert g.dtype == r.dtype and g.tobytes() == r.tobytes()


GRID_SIDES = st.fractions(min_value=Fraction(1, 4), max_value=2, max_denominator=6)


@st.composite
def grid_polygons(draw):
    family = draw(st.sampled_from(["rectangle", "l-shape", "parallelogram"]))
    if family == "rectangle":
        return rectangle(draw(GRID_SIDES), draw(GRID_SIDES))
    if family == "l-shape":
        x1, y1, dx, dy = (draw(GRID_SIDES) for _ in range(4))
        return l_shape(x1, y1, x1 + dx, y1 + dy)
    return parallelogram_pi3(draw(GRID_SIDES) + draw(GRID_SIDES))


@settings(max_examples=20, deadline=None)
@given(
    poly=grid_polygons(),
    labels=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    width=st.integers(1, 50),
    height=st.integers(1, 50),
)
def test_grid_bytes_match_row_sampler(poly, labels, width, height):
    for wave in wave_family(poly, labels):
        assert grid_csv(wave, width, height) == row_grid_csv(wave, width, height)
        assert grid_pgm(wave, width, height) == row_grid_pgm(wave, width, height)


@settings(max_examples=40, deadline=None)
@given(poly=grid_polygons())
def test_prescriptions_match_brute_force_sweep(poly):
    epp = build_epp(poly)
    found = enumerate_prescriptions(epp)
    assert {(pr.eta, pr.bc) for pr in found} == brute_prescriptions(epp)
    keys = [(pr.bc.count(NEUMANN), pr.bc) for pr in found]
    assert keys == sorted(keys)
