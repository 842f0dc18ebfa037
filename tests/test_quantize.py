"""Momentum quantization against the closed forms of the worked examples."""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polybilliard
from polybilliard import quantize, shapes
from polybilliard.cyclo import CycloField
from polybilliard.errors import (
    ConstraintViolation,
    NotDoublyRational,
    NotPeriodicSkeleton,
    OutOfRange,
)
from polybilliard.exactgeom import FloatFrame, load_polygon, polygon_from_spec, validate_polygon
from polybilliard.lattice import period_lattice, rationalize_relations
from polybilliard.quantize import (
    CLASSICAL_APERIODIC,
    CLASSICAL_PERIODIC,
    QUANTUM,
    PeriodicSkeletonData,
    QuantizedMomentum,
    SpectrumEntry,
    WavelengthEntry,
    _dual_steps,
    momentum_aperiodic,
    momentum_periodic,
    periodic_skeleton_check,
    quantum_momentum,
    spectrum,
    spectrum_csv,
    wavelength_report,
)
from polybilliard.shapes import (
    isosceles_pi5,
    l_shape,
    parallelogram_pi3,
    rectangle,
    square,
)
from polybilliard.unfold import Period, build_epp, period_basis


def lattice_of(polygon, pair_choice=None):
    epp = build_epp(polygon)
    basis = period_basis(epp)
    return period_lattice(polygon.frame, basis, pair_choice=pair_choice)


def parallelogram_frames(a: Fraction):
    """The pi/3 parallelogram's side periods and their 90-degree rotations."""
    poly = parallelogram_pi3(a)
    f = poly.frame
    s = f.scalar(a)
    d1 = s * (f.unit(0) + f.unit(1))
    d2 = s * (f.unit(0) + f.unit(-1))
    v = d1 - d2
    u = d1 + d2
    return poly, f, d1, d2, v, u


def side_lattice(a: Fraction):
    poly, f, d1, d2, _, _ = parallelogram_frames(a)
    inv = f.scalar(1 / a)
    basis = [Period(d1), Period(d2), Period(inv * d1), Period(inv * d2)]
    return f, d1, d2, period_lattice(f, basis, pair_choice=(0, 1))


def rotated_lattice(a: Fraction):
    poly, f, d1, d2, v, u = parallelogram_frames(a)
    inv = f.scalar(1 / a)
    basis = [Period(v), Period(u), Period(inv * v), Period(inv * u)]
    return f, v, u, period_lattice(f, basis, pair_choice=(0, 1))


def test_square_unit_momentum():
    lat = lattice_of(square())
    q = momentum_aperiodic(lat, 1, 1)
    assert q.vector == pytest.approx(complex(math.pi, math.pi), abs=1e-12)
    assert q.energy == pytest.approx(math.pi**2, rel=1e-12)
    assert q.kind == CLASSICAL_APERIODIC


def test_square_axis_momentum_is_periodic_kind():
    lat = lattice_of(square())
    q = momentum_aperiodic(lat, 1, 0)
    z1 = lat.frame.to_complex(lat.d1)
    # parallel to the m-period itself: a periodic skeleton
    assert abs((q.vector.conjugate() * z1).imag) < 1e-12
    assert (q.vector.conjugate() * z1).real == pytest.approx(2 * math.pi, rel=1e-12)
    assert q.kind == CLASSICAL_PERIODIC


def test_momentum_projections_match_labels():
    f, d1, d2, lat = side_lattice(Fraction(2, 3))
    for m, n in [(1, 1), (2, -1), (-3, 2), (0, 1)]:
        if m == 0 and n == 0:
            continue
        q = momentum_aperiodic(lat, m, n)
        z1, z2 = f.to_complex(d1), f.to_complex(d2)
        p = q.vector
        assert (p.conjugate() * z1).real == pytest.approx(
            2 * math.pi * m * lat.c1, abs=1e-9
        )
        assert (p.conjugate() * z2).real == pytest.approx(
            2 * math.pi * n * lat.c2, abs=1e-9
        )


def test_zero_labels_rejected():
    lat = lattice_of(square())
    with pytest.raises(OutOfRange):
        momentum_aperiodic(lat, 0, 0)


def test_irrational_lattice_rejected():
    lat = lattice_of(isosceles_pi5())
    with pytest.raises(NotDoublyRational):
        momentum_aperiodic(lat, 1, 0)
    with pytest.raises(NotDoublyRational):
        spectrum(lat, 10.0)


def test_parallelogram_momentum_closed_form():
    # p_mn = (4*pi*p^2 / 9q) * [(2m-n) D1 + (2n-m) D2] for side lengths q/p
    a = Fraction(2, 3)
    f, d1, d2, lat = side_lattice(a)
    assert (lat.c1, lat.c2) == (2, 2)
    z1, z2 = f.to_complex(d1), f.to_complex(d2)
    scale = 4 * math.pi * 3**2 / (9 * 2)
    for m, n in [(1, 1), (1, 0), (2, -1), (-1, 3)]:
        q = momentum_aperiodic(lat, m, n)
        expect = scale * ((2 * m - n) * z1 + (2 * n - m) * z2)
        assert q.vector == pytest.approx(expect, abs=1e-9)
        e_expect = (8 / 9) * math.pi**2 * 3**2 * (m * m + n * n - m * n)
        assert q.energy == pytest.approx(e_expect, rel=1e-12)


def test_rotated_pair_momentum_closed_form():
    # Over (D1-D2, D1+D2) the solution is (2*pi*p^2 / 9q) * [3m*v + n*u].
    a = Fraction(2, 3)
    f, v, u, lat = rotated_lattice(a)
    assert (lat.c1, lat.c2) == (2, 2)
    zv, zu = f.to_complex(v), f.to_complex(u)
    scale = 2 * math.pi * 3**2 / (9 * 2)
    for m, n in [(1, 1), (0, 2), (2, -1)]:
        q = momentum_aperiodic(lat, m, n)
        assert q.vector == pytest.approx(scale * (3 * m * zv + n * zu), abs=1e-9)
        e_expect = (2 / 9) * math.pi**2 * 3**2 * (3 * m * m + n * n)
        assert q.energy == pytest.approx(e_expect, rel=1e-12)


def test_rotated_labels_remap_onto_side_pair():
    # (m, n) -> (m - n, m + n) sends the rotated-pair solution onto the
    # side-pair one, vector for vector.
    a = Fraction(2, 3)
    _, _, _, side = side_lattice(a)
    _, _, _, rot = rotated_lattice(a)
    for m in range(-3, 4):
        for n in range(-3, 4):
            if m == 0 and n == 0:
                continue
            qs = momentum_aperiodic(side, m, n)
            qr = momentum_aperiodic(rot, m - n, m + n)
            assert qr.vector == pytest.approx(qs.vector, abs=1e-9)
    window = [
        (m, n) for m in range(-8, 9) for n in range(-8, 9) if (m, n) != (0, 0)
    ]
    side_set = sorted(momentum_aperiodic(side, m, n).energy for m, n in window)
    rot_set = sorted(
        momentum_aperiodic(rot, m - n, m + n).energy for m, n in window
    )
    assert side_set == pytest.approx(rot_set, rel=1e-12)


def test_skeleton_check_side_pair_is_generic():
    # C2*(D2.D1) = (1/2) * C1*|D2|^2: no integer k, so no periodic skeleton.
    _, _, _, lat = side_lattice(Fraction(2, 3))
    assert periodic_skeleton_check(lat) is None


def test_skeleton_check_rotated_pair():
    _, _, _, lat = rotated_lattice(Fraction(2, 3))
    data = periodic_skeleton_check(lat)
    assert data is not None and data.k == 0
    assert data.alpha == pytest.approx(math.pi / 2, abs=1e-12)
    flipped = periodic_skeleton_check(lat, (1, 0))
    assert flipped is not None and flipped.k == 0
    assert flipped.direction_index == 0


def test_skeleton_check_irrational_ratio():
    f = FloatFrame(8)
    d1 = complex(1.0, 0.0)
    d2 = complex(math.sqrt(2) / 2, 1.0)
    basis = [Period(d1), Period(d2), Period(1.5 * d1), Period(2.0 * d2)]
    lat = period_lattice(f, basis, pair_choice=(0, 1))
    assert lat.doubly_rational
    assert periodic_skeleton_check(lat) is None


def test_periodic_momentum_direction():
    # Along v = D1 - D2 the momentum is (2*pi*n*p^2 / 3q) * v.
    a = Fraction(2, 3)
    f, v, u, lat = rotated_lattice(a)
    data = periodic_skeleton_check(lat, (1, 0))
    zv = f.to_complex(v)
    for n in (1, -2, 3):
        q = momentum_periodic(lat, data, n)
        expect = (2 * math.pi * n * 3**2 / (3 * 2)) * zv
        assert q.vector == pytest.approx(expect, abs=1e-9)
        assert q.kind == CLASSICAL_PERIODIC
        assert q.m == data.k * n
    with pytest.raises(OutOfRange):
        momentum_periodic(lat, data, 0)
    with pytest.raises(NotPeriodicSkeleton):
        momentum_periodic(lat, None, 1)


def test_periodic_momentum_square_vertical():
    lat = lattice_of(square())
    # direction role = basis[1], the vertical period (0, 2)
    data = periodic_skeleton_check(lat, (0, 1))
    assert data is not None and data.k == 0
    q = momentum_periodic(lat, data, 1)
    assert q.vector == pytest.approx(complex(0.0, math.pi), abs=1e-12)


def test_periodic_momentum_channel_route():
    # A channel period (3/2) * v quantizes with effective count
    # C_l = n_l * p_l and lands on exactly the same momentum.
    a = Fraction(2, 3)
    f, v, u, lat = rotated_lattice(a)
    data = periodic_skeleton_check(lat, (1, 0))
    direct = momentum_periodic(lat, data, 2)
    channel = momentum_periodic(lat, data, 2, along=lat.basis[2])
    assert channel.vector == pytest.approx(direct.vector, abs=1e-12)
    with pytest.raises(NotPeriodicSkeleton):
        momentum_periodic(lat, data, 1, along=lat.basis[1])


def test_quantum_momentum_transverse_value():
    a = Fraction(2, 3)
    f, v, u, lat = rotated_lattice(a)
    data = periodic_skeleton_check(lat, (1, 0))
    base = momentum_periodic(lat, data, 4)
    q = quantum_momentum(lat, data, 1, 4)
    t = abs(q.vector - base.vector)
    expect_t = 2 * math.pi * data.c1 / (abs(data.d1) * math.sin(data.alpha))
    assert t == pytest.approx(expect_t, rel=1e-12)
    assert q.kind == QUANTUM
    assert abs((q.vector.conjugate() * base.vector).imag) > 0.0


def test_quantum_energy_closed_form():
    # E = (2/9) pi^2 p^2 (m^2 + 3 n^2) over the skeleton along D1 - D2,
    # which is the transverse-quantized companion of the rotated-pair grid.
    a = Fraction(2, 3)
    _, _, _, lat = rotated_lattice(a)
    data = periodic_skeleton_check(lat, (1, 0))
    for m, n in [(1, 4), (2, 6), (0, 3)]:
        q = quantum_momentum(lat, data, m, n)
        expect = (2 / 9) * math.pi**2 * 3**2 * (m * m + 3 * n * n)
        assert q.energy == pytest.approx(expect, rel=1e-12)


def test_quantum_flag_threshold():
    a = Fraction(2, 3)
    _, _, _, lat = rotated_lattice(a)
    data = periodic_skeleton_check(lat, (1, 0))
    with pytest.warns(ConstraintViolation):
        tight = quantum_momentum(lat, data, 1, 1)
    assert tight.flag == "eq21c-ratio"
    loose = quantum_momentum(lat, data, 1, 3)
    assert loose.flag is None
    relaxed = quantum_momentum(lat, data, 1, 1, max_ratio=0.7)
    assert relaxed.flag is None


def test_quantum_m_zero_reduces_to_periodic():
    a = Fraction(2, 3)
    _, _, _, lat = rotated_lattice(a)
    data = periodic_skeleton_check(lat, (1, 0))
    base = momentum_periodic(lat, data, 2)
    q = quantum_momentum(lat, data, 0, 2)
    assert q.vector == pytest.approx(base.vector, abs=1e-12)
    with pytest.raises(OutOfRange):
        quantum_momentum(lat, data, 0, 2, has_aperiodic_bundle=False)
    with pytest.raises(OutOfRange):
        quantum_momentum(lat, data, -1, 2)


@pytest.mark.filterwarnings("ignore::polybilliard.errors.ConstraintViolation")
def test_k_zero_quantum_equals_nonaxial_grid():
    # For a k = 0 skeleton the transverse-quantized energies coincide with
    # the closed-form grid over labels with both entries nonzero.
    for make in (lambda: lattice_of(square()), lambda: rotated_lattice(Fraction(2, 3))[3]):
        lat = make()
        data = periodic_skeleton_check(lat)
        assert data is not None and data.k == 0
        e_max = 40.0 * lat.genus
        grid = {
            round(momentum_aperiodic(lat, m, n).energy, 6)
            for m in range(-12, 13)
            for n in range(-12, 13)
            if m and n
            and momentum_aperiodic(lat, m, n).energy <= e_max
        }
        quant = set()
        m = 1
        while True:
            q1 = quantum_momentum(lat, data, m, 1)
            if 0.5 * abs(q1.vector - momentum_periodic(lat, data, 1).vector) ** 2 > e_max:
                break
            n = 1
            while True:
                q = quantum_momentum(lat, data, m, n)
                if q.energy > e_max:
                    break
                quant.add(round(q.energy, 6))
                n += 1
            m += 1
        assert quant == grid


def test_spectrum_square_levels_and_degeneracy():
    lat = lattice_of(square())
    levels = spectrum(lat, 3.0 * math.pi**2)
    assert [s.energy for s in levels] == sorted(s.energy for s in levels)
    base = 0.5 * math.pi**2
    assert levels[0].energy == pytest.approx(base, rel=1e-12)
    assert levels[0].degeneracy == 4
    assert levels[0].kind == CLASSICAL_PERIODIC
    assert levels[1].energy == pytest.approx(2 * base, rel=1e-12)
    assert levels[1].degeneracy == 4
    assert levels[1].kind == CLASSICAL_APERIODIC
    by_e = {round(s.energy / base): s for s in levels}
    assert by_e[5].degeneracy == 8
    assert all(s.energy <= 3.0 * math.pi**2 * (1 + 1e-9) for s in levels)


def _float_twin(lat):
    """The same lattice in a float frame: complex periods, the same table."""
    basis = tuple(Period(complex(per.vector)) for per in lat.basis)
    return period_lattice(FloatFrame(lat.frame.N), basis, pair_choice=lat.pair_indexes)


def test_spectrum_classifies_one_label_of_each_time_reversed_pair(monkeypatch):
    # (m, n) and (-m, -n) share energy and kind, so only one of them is
    # classified and the entry counts it twice: 320 calls for the 640 labels
    # of the square's float twin.  The exact square decides its kinds per
    # row, with no call at all, and gets the same entries.
    exact = lattice_of(square())
    twin = _float_twin(exact)
    assert not twin.frame.exact and twin.parallel_labels is None
    calls = []
    classify = quantize._classify_classical
    monkeypatch.setattr(
        quantize, "_classify_classical", lambda periods, p: calls.append(p) or classify(periods, p)
    )
    levels = spectrum(twin, 1000.0)
    assert sum(s.degeneracy for s in levels) == 640
    assert len(calls) == 320
    assert all(s.degeneracy % 2 == 0 for s in levels)
    assert all(s.labels < (0, 0) for s in levels)
    assert _fields(spectrum(exact, 1000.0)) == _fields(levels)
    assert len(calls) == 320


def test_momentum_kind_is_exact_in_an_exact_frame():
    # the square's label (1, 10^10) points 1e-10 rad off its x period, within
    # the float tolerance, but is parallel to no period; a float frame keeps
    # its tolerance, on the square's float twin and on a substitute whose
    # label (1, 1) is periodic
    exact = lattice_of(square())
    assert momentum_aperiodic(exact, 1, 10**10).kind == CLASSICAL_APERIODIC
    assert momentum_aperiodic(exact, 0, 10**10).kind == CLASSICAL_PERIODIC
    assert momentum_aperiodic(exact, -(10**10), 0).kind == CLASSICAL_PERIODIC
    assert momentum_aperiodic(_float_twin(exact), 1, 10**10).kind == CLASSICAL_PERIODIC
    sub = _substitute(1, 38, 2, 6)
    assert sub.parallel_labels is None
    assert momentum_aperiodic(sub, 1, 1).kind == CLASSICAL_PERIODIC
    assert momentum_aperiodic(sub, 10**10, 10**10 + 1).kind == CLASSICAL_PERIODIC
    assert momentum_aperiodic(sub, 10**5, 10**5 + 1).kind == CLASSICAL_APERIODIC


def _root2_diagonals():
    """The (1 + sqrt 2) x 1 rectangle's pair with the diagonal members D1 + D2
    and 2*D1 - D2, whose directions no label takes: |D1|^2 / |D2|^2 is irrational."""
    root2 = CycloField(8).zeta(1).real * 2
    poly = validate_polygon(["1/2"] * 4, [1 + root2, 1, 1 + root2, 1])
    lat = lattice_of(poly)
    d1, d2 = lat.d1, lat.d2
    basis = [Period(d1), Period(d2), Period(d1 + d2), Period(2 * d1 - d2)]
    return period_lattice(poly.frame, basis, pair_choice=(0, 1))


@pytest.mark.parametrize("make", [square, l_shape, parallelogram_pi3, shapes.broken_parallelogram,
                                  shapes.equilateral, _root2_diagonals])
def test_parallel_labels_agree_with_the_float_test_on_small_labels(make):
    lat = make() if make is _root2_diagonals else lattice_of(make())
    lines = lat.parallel_labels
    assert lat.frame.exact and len(lines) == (2 if make is _root2_diagonals else len(lat.basis))
    periods = quantize._basis_floats(lat)
    p1, p2 = _dual_steps(lat)
    for m in range(-25, 26):
        for n in range(-25, 26):
            if m or n:
                float_kind = quantize._classify_classical(periods, m * p1 + n * p2)
                assert momentum_aperiodic(lat, m, n).kind == float_kind, (m, n)


def test_spectrum_kind_filter():
    lat = lattice_of(square())
    only_ap = spectrum(lat, 3.0 * math.pi**2, kinds=(CLASSICAL_APERIODIC,))
    assert all(s.kind == CLASSICAL_APERIODIC for s in only_ap)
    assert only_ap[0].energy == pytest.approx(math.pi**2, rel=1e-12)


@pytest.mark.parametrize("kinds", [("classical-periodik",), "quantum"])
def test_spectrum_rejects_unknown_kinds(kinds):
    # a misspelled kind used to give no level at all, and a bare string was
    # searched by character, leaving the cutoff unset
    with pytest.raises(OutOfRange, match="classical-aperiodic, classical-periodic, quantum"):
        spectrum(lattice_of(square()), 50.0, kinds=kinds)


def test_spectrum_quantum_kind():
    _, _, _, lat = rotated_lattice(Fraction(2, 3))
    e_max = 900.0
    levels = spectrum(lat, e_max, kinds=(QUANTUM,))
    assert levels, "quantum family should be populated for the k = 0 skeleton"
    assert all(s.kind == QUANTUM for s in levels)
    expect = sorted(
        (2 / 9) * math.pi**2 * 9 * (3 * m * m + n * n)
        for m in range(1, 10)
        for n in range(1, 10)
        if (2 / 9) * math.pi**2 * 9 * (3 * m * m + n * n) <= e_max
    )
    got = sorted(s.energy for s in levels for _ in range(s.degeneracy))
    assert got == pytest.approx(expect, rel=1e-12)


def test_spectrum_pair_choice_invariant():
    poly = parallelogram_pi3(Fraction(2, 3))
    epp = build_epp(poly)
    basis = period_basis(epp)
    e_max = 500.0
    reference = None
    for pair in (None, (1, 2), (2, 3)):
        lat = period_lattice(poly.frame, basis, pair_choice=pair)
        flat = [
            e
            for s in spectrum(lat, e_max)
            for e in [s.energy] * s.degeneracy
        ]
        if reference is None:
            reference = flat
        else:
            assert flat == pytest.approx(reference, rel=1e-9)


def test_spectrum_broken_rectangle_closed_form():
    # E = pi^2 (m^2 C_x^2 / x1^2 + n^2 C_y^2 / y1^2) / 2 over the side
    # periods (2 x1, 0), (0, 2 y1) of the x2 = 3/2 broken rectangle.
    poly = l_shape(1, 1, Fraction(3, 2), 2)
    f = poly.frame
    basis = [
        Period(f.from_xy(2, 0)),
        Period(f.from_xy(0, 2)),
        Period(f.from_xy(3, 0)),
        Period(f.from_xy(0, 4)),
    ]
    lat = period_lattice(f, basis, pair_choice=(0, 1))
    assert (lat.c1, lat.c2) == (2, 1)
    q = momentum_aperiodic(lat, 1, 1)
    assert q.vector == pytest.approx(complex(2 * math.pi, math.pi), abs=1e-12)
    e_max = 200.0
    got = [
        e for s in spectrum(lat, e_max) for e in [s.energy] * s.degeneracy
    ]
    expect = sorted(
        0.5 * math.pi**2 * (m * m * 4 + n * n)
        for m in range(-10, 11)
        for n in range(-14, 15)
        if (m, n) != (0, 0) and 0.5 * math.pi**2 * (m * m * 4 + n * n) <= e_max
    )
    assert got == pytest.approx(expect, rel=1e-12)


def test_spectrum_same_lattice_from_unfolding_basis():
    # The homology basis of the same broken rectangle generates the same
    # plane lattice, so the spectrum cannot depend on which basis was used.
    poly = l_shape(1, 1, Fraction(3, 2), 2)
    f = poly.frame
    paper = [
        Period(f.from_xy(2, 0)),
        Period(f.from_xy(0, 2)),
        Period(f.from_xy(3, 0)),
        Period(f.from_xy(0, 4)),
    ]
    lat_paper = period_lattice(f, paper, pair_choice=(0, 1))
    lat_hom = lattice_of(poly)
    e_max = 120.0
    a = [e for s in spectrum(lat_paper, e_max) for e in [s.energy] * s.degeneracy]
    b = [e for s in spectrum(lat_hom, e_max) for e in [s.energy] * s.degeneracy]
    assert a == pytest.approx(b, rel=1e-9)


def test_spectrum_entry_wavelengths():
    a = Fraction(2, 3)
    f, d1, d2, lat = side_lattice(a)
    levels = spectrum(lat, 100.0)
    first = levels[0]
    assert first.lam == pytest.approx(2 * math.pi / math.sqrt(2 * first.energy))
    m, n = first.labels
    z1 = abs(f.to_complex(d1))
    if m:
        assert first.lam_pair[0] == pytest.approx(z1 / (abs(m) * lat.c1))
    else:
        assert math.isinf(first.lam_pair[0])


def test_wavelength_square():
    lat = lattice_of(square())
    q = momentum_aperiodic(lat, 1, 1)
    report = wavelength_report(lat, q)
    assert len(report) == 2
    for entry in report:
        assert entry.ok
        assert entry.count == pytest.approx(1.0, abs=1e-12)
        assert entry.wavelength == pytest.approx(2.0, abs=1e-12)
        assert entry.law_count == 1


def test_wavelength_parallelogram_counts():
    a = Fraction(2, 3)
    f, d1, d2, lat = side_lattice(a)
    q = momentum_aperiodic(lat, 1, 1)
    report = wavelength_report(lat, q)
    assert [e.law_count for e in report] == [2, 2, 3, 3]
    for entry in report:
        assert entry.ok
        assert entry.count == pytest.approx(entry.law_count, abs=1e-9)


def test_wavelength_violation():
    lat = lattice_of(square())
    report = wavelength_report(lat, complex(1.234, 0.777))
    assert any(not e.ok for e in report)
    assert all(e.law_count is None for e in report)


def test_spectrum_csv_format():
    lat = lattice_of(square())
    text = spectrum_csv(spectrum(lat, 2.0 * math.pi**2))
    lines = text.strip().split("\n")
    assert lines[0] == "level_index,m,n,kind,energy,degeneracy,flag"
    assert lines[1].startswith("0,")
    assert "classical-periodic" in lines[1]
    assert lines[1].split(",")[5] == "4"
    assert text.endswith("\n")


@settings(max_examples=15, deadline=None)
@given(
    num=st.integers(min_value=1, max_value=9),
    den=st.integers(min_value=1, max_value=4),
    m=st.integers(min_value=-3, max_value=3),
    n=st.integers(min_value=-3, max_value=3),
)
def test_quantized_momenta_fit_every_period(num, den, m, n):
    if m == 0 and n == 0:
        return
    a = Fraction(num, den)
    f = FloatFrame(6)
    d1 = complex(1.0, 0.25)
    d2 = complex(0.125, 1.0)
    basis = [
        Period(d1),
        Period(d2),
        Period(d1 / float(a)),
        Period(d2 / float(a)),
    ]
    lat = period_lattice(f, basis, pair_choice=(0, 1))
    q = momentum_aperiodic(lat, m, n)
    assert all(entry.ok for entry in wavelength_report(lat, q))


def test_quantize_loads_no_numpy():
    # the CLI's quantize never calls numpy code, so it must not pay numpy's memory
    code = "import sys, polybilliard.quantize; sys.exit('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(polybilliard.__file__).resolve().parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize("module", ["quantize", "cli"])
def test_quantize_path_loads_no_dataclasses(module):
    # the records are plain classes: `dataclasses` and the `inspect` it pulls in
    # cost a fresh CLI process about a quarter of its start-up
    code = (f"import sys, polybilliard.{module}; "
            "sys.exit(sorted({'dataclasses', 'inspect'} & set(sys.modules)) or None)")
    env = {**os.environ, "PYTHONPATH": str(Path(polybilliard.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (0, "")


def test_quantize_records_keep_their_forms_and_compare_by_identity():
    lat = lattice_of(square())
    q = QuantizedMomentum(1, 0, 2j, CLASSICAL_APERIODIC)
    assert q.flag is None and q.energy == 2.0 and q != QuantizedMomentum(1, 0, 2j, q.kind)
    e = SpectrumEntry((1, 0), 2.0, CLASSICAL_APERIODIC, 4, math.pi, None, flag=None)
    keywords = SpectrumEntry(labels=(1, 0), energy=2.0, kind=CLASSICAL_APERIODIC,
                             degeneracy=4, lam=math.pi, lam_pair=None)
    assert e.flag is None and keywords.flag is None and e != keywords
    w = WavelengthEntry(lat.basis[0], wavelength=1.0, count=1.0, law_count=None, ok=True)
    assert w.period is lat.basis[0] and w != WavelengthEntry(lat.basis[0], 1.0, 1.0, None, True)
    skel = periodic_skeleton_check(lat)
    twin = PeriodicSkeletonData(skel.k, skel.alpha, skel.direction_index, skel.c1, skel.c2,
                                d1=skel.d1, d2=skel.d2)
    assert skel != twin and twin.periodic(1) == skel.periodic(1)
    assert twin.transverse_t(1) == skel.transverse_t(1)


# --- spectrum digests and the box-enumeration oracle ---------------------------

POLYGONS = Path(__file__).resolve().parent.parent / "polygons"
KIND_SETS = {
    "default": (CLASSICAL_APERIODIC, CLASSICAL_PERIODIC),
    "periodic": (CLASSICAL_PERIODIC,),
    "quantum": (CLASSICAL_APERIODIC, CLASSICAL_PERIODIC, QUANTUM),
}
DIGEST_E_MAX = (200.0, 3e4, 1e5)


def _box_spectrum(lattice, e_max, kinds, max_ratio=0.2) -> list[SpectrumEntry]:
    """The closed-form spectrum as it was computed before the row bounds:
    every label of the (2*reach+1)^2 box, each duplicate merged into a new
    entry."""
    rel_tol = 1e-9
    raw = []
    if CLASSICAL_APERIODIC in kinds or CLASSICAL_PERIODIC in kinds:
        p1, p2 = _dual_steps(lattice)
        g11, g22 = abs(p1) ** 2, abs(p2) ** 2
        g12 = (p1.conjugate() * p2).real
        tr, det = g11 + g22, g11 * g22 - g12 * g12
        lam_min = (tr - math.sqrt(max(tr * tr - 4 * det, 0.0))) / 2
        reach = int(math.sqrt(2 * e_max / lam_min)) + 1
        cutoff = e_max * (1 + rel_tol)
        f = lattice.frame
        z1, z2 = f.to_complex(lattice.d1), f.to_complex(lattice.d2)
        for m in range(-reach, reach + 1):
            for n in range(-reach, reach + 1):
                if m == 0 and n == 0:
                    continue
                p = m * p1 + n * p2
                e = 0.5 * abs(p) ** 2
                if e > cutoff:
                    continue
                kind = CLASSICAL_APERIODIC
                for per in lattice.basis:
                    z = f.to_complex(per.vector)
                    if abs((p.conjugate() * z).imag) <= rel_tol * abs(p) * abs(z):
                        kind = CLASSICAL_PERIODIC
                        break
                if kind in kinds:
                    l1 = abs(z1) / (abs(m) * lattice.c1) if m else math.inf
                    l2 = abs(z2) / (abs(n) * lattice.c2) if n else math.inf
                    raw.append((e, kind, (m, n), (l1, l2), None))
    if QUANTUM in kinds:
        data = periodic_skeleton_check(lattice)
        if data is not None:
            m = 1
            while True:
                t = 2 * math.pi * m * data.c1 / (abs(data.d1) * math.sin(data.alpha))
                if 0.5 * t * t > e_max:
                    break
                n = 1
                while True:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", ConstraintViolation)
                        q = quantum_momentum(lattice, data, m, n, max_ratio=max_ratio)
                    if q.energy > e_max * (1 + rel_tol):
                        break
                    raw.append((q.energy, QUANTUM, (m, n), None, q.flag))
                    n += 1
                if n == 1:
                    break
                m += 1
    raw.sort(key=lambda r: (r[0], r[1], r[2]))
    entries = []
    for e, kind, labels, lam_pair, flag in raw:
        prev = entries[-1] if entries else None
        if (
            prev is not None
            and prev.kind == kind
            and abs(e - prev.energy) <= rel_tol * max(1.0, abs(prev.energy))
        ):
            entries[-1] = SpectrumEntry(
                labels=min(prev.labels, labels),
                energy=prev.energy,
                kind=kind,
                degeneracy=prev.degeneracy + 1,
                lam=prev.lam,
                lam_pair=prev.lam_pair if prev.labels <= labels else lam_pair,
                flag=prev.flag or flag,
            )
            continue
        entries.append(
            SpectrumEntry(
                labels=labels,
                energy=e,
                kind=kind,
                degeneracy=1,
                lam=2 * math.pi / math.sqrt(2 * e),
                lam_pair=lam_pair,
                flag=flag,
            )
        )
    entries.sort(key=lambda s: (s.energy, s.kind, s.labels))
    return entries


def _fields(entries) -> list[str]:
    return [
        repr((s.labels, s.energy, s.kind, s.degeneracy, s.lam, s.lam_pair, s.flag))
        for s in entries
    ]


@cache
def _digest_lattice(name: str):
    if name.endswith(".json"):
        return lattice_of(load_polygon(POLYGONS / name))
    return lattice_of(getattr(shapes, name)())


# SHA-256 over DIGEST_E_MAX of spectrum_csv and the repr of every entry field,
# recorded while spectrum still enumerated the whole label box.  The bundled
# doubly rational polygons, plus the `shapes` lattices that no bundled polygon
# already gives: square(), parallelogram_pi3() and equilateral() build the
# lattices of square.json, parallelogram_2_3.json and equilateral.json.
SPECTRUM_SHA256 = {
    "broken_rectangle.json": {
        "default": "a9a052637a9edae8a716ae3667ebcf9b4f7cf659e5d901d9f1ffac2df740ef19",
        "periodic": "ce930c8cdb8d73c065c573083589f9f231322805311fb543f2d59e8d3be55ef8",
        "quantum": "0d8f934facd6c0b201088c594ab78356209796b8965dba8652d524a8010c7f44",
    },
    "broken_rectangle_199_100.json": {
        "default": "1d005818421da3ab7f452cc7647e86eb9b71a0eb0cac441e115fac81018d546e",
        "periodic": "e1b0b1eee26b67cae400e6db89b2730106c59f7ca39d5bcf441b6a627cd34226",
        "quantum": "fea885b996a34452603b3394c01c0a73d86abbb35e866e57a2a4035f676bce37",
    },
    "broken_rectangle_3_2.json": {
        "default": "8134622c5c1b2bdaa759dec98332353149390fbbb9440bfdb4918cb09b01bcf6",
        "periodic": "afbc34f2298f0d828b9df3922047be53dbbacaef88ed25052f271ddd592f66c3",
        "quantum": "c5790359166de68a6cec831e33a20599f317f7ec76300a2e4005f43fee18f7a8",
    },
    "equilateral.json": {
        "default": "8ce809bcd09863af8e81dbaea0fa85dc767f9462d0f1210947b48a59bc9703d1",
        "periodic": "f042cbde03c6425bd8cfbd188a6f294734bae78a469d5a28b7a8e26929cda8a8",
        "quantum": "8ce809bcd09863af8e81dbaea0fa85dc767f9462d0f1210947b48a59bc9703d1",
    },
    "parallelogram_2_3.json": {
        "default": "52e11f74430652d55a6f9265f2985afc1c33f3818523142e01bad22f1dbfbb2e",
        "periodic": "84fefe76fcd76de9ae5eef616811943f88d58252f96f7975fc2ec23db36350dc",
        "quantum": "52e11f74430652d55a6f9265f2985afc1c33f3818523142e01bad22f1dbfbb2e",
    },
    "rhombus.json": {
        "default": "cd1a2523fe39b7ceafb3e3235d8d3938e1dfe8542cb396cd3106ad2a99612bac",
        "periodic": "82492141484e194bdd8a1d9534834a40c0e45bb647f5b15244e306bdd592f15f",
        "quantum": "cd1a2523fe39b7ceafb3e3235d8d3938e1dfe8542cb396cd3106ad2a99612bac",
    },
    "square.json": {
        "default": "a9a052637a9edae8a716ae3667ebcf9b4f7cf659e5d901d9f1ffac2df740ef19",
        "periodic": "ce930c8cdb8d73c065c573083589f9f231322805311fb543f2d59e8d3be55ef8",
        "quantum": "0d8f934facd6c0b201088c594ab78356209796b8965dba8652d524a8010c7f44",
    },
    "l_shape": {
        "default": "a9a052637a9edae8a716ae3667ebcf9b4f7cf659e5d901d9f1ffac2df740ef19",
        "periodic": "ce930c8cdb8d73c065c573083589f9f231322805311fb543f2d59e8d3be55ef8",
        "quantum": "0d8f934facd6c0b201088c594ab78356209796b8965dba8652d524a8010c7f44",
    },
    "broken_parallelogram": {
        "default": "618d4fd63ebc661dead2842280f311322192cd43066bbe621ac3446191b9d165",
        "periodic": "ce23022f4cf465efb15fd782928dc4fd1ab62dd46ed3f02b507457ca78168710",
        "quantum": "618d4fd63ebc661dead2842280f311322192cd43066bbe621ac3446191b9d165",
    },
}


@pytest.mark.parametrize("kind_set", sorted(KIND_SETS))
@pytest.mark.parametrize("name", sorted(SPECTRUM_SHA256))
def test_spectrum_digest(name, kind_set):
    lat = _digest_lattice(name)
    h = hashlib.sha256()
    for e_max in DIGEST_E_MAX:
        entries = spectrum(lat, e_max, kinds=KIND_SETS[kind_set])
        h.update(spectrum_csv(entries).encode())
        h.update("\n".join(_fields(entries)).encode())
    assert h.hexdigest() == SPECTRUM_SHA256[name][kind_set]


SIDES = st.fractions(min_value=Fraction(1, 4), max_value=2, max_denominator=6)


# Float-frame substitutes of right triangles (phi(4N) exceeds the exact-degree
# limit): (a, N) of the angle a*pi/N, denominator cap, and a first side long
# enough to put some 20 to 130 levels below e_max = 1e4.
SUBSTITUTES = ((1, 38, 2, 6), (1, 38, 10, 1000), (3, 44, 2, 1000), (3, 44, 10, 40000))


@cache
def _substitute(a: int, n: int, cap: int, side: int):
    angles = (Fraction(a, n), Fraction(1, 2), Fraction(1, 2) - Fraction(a, n))
    sides = [{"angle": str(angles[0]), "length": str(side)}]
    poly = polygon_from_spec({"sides": sides + [{"angle": str(x)} for x in angles[1:]]})
    assert not poly.frame.exact
    return rationalize_relations(lattice_of(poly), cap)


@st.composite
def drpb_lattices(draw):
    family = draw(
        st.sampled_from(["rectangle", "l-shape", "parallelogram", "root2-rectangle", "substitute"])
    )
    if family == "substitute":
        return _substitute(*draw(st.sampled_from(SUBSTITUTES)))
    if family == "rectangle":
        poly = rectangle(draw(SIDES), draw(SIDES))
    elif family == "l-shape":
        x1, y1, dx, dy = (draw(SIDES) for _ in range(4))
        poly = l_shape(x1, y1, x1 + dx, y1 + dy)
    elif family == "root2-rectangle":
        # the exact (1 + sqrt 2) x 1 rectangle, scaled: an irrational side ratio
        root2 = CycloField(8).zeta(1).real * 2
        w, h = draw(SIDES), draw(SIDES)
        poly = validate_polygon(["1/2"] * 4, [(1 + root2) * w, h, (1 + root2) * w, h])
    else:
        poly = parallelogram_pi3(draw(SIDES) + draw(SIDES))
    return lattice_of(poly)


@settings(max_examples=30, deadline=None)
@given(
    lat=drpb_lattices(),
    e_max=st.floats(min_value=1.0, max_value=1e4),
    kind_set=st.sampled_from(sorted(KIND_SETS)),
)
def test_spectrum_matches_box_enumeration(lat, e_max, kind_set):
    kinds = KIND_SETS[kind_set]
    assert _fields(spectrum(lat, e_max, kinds=kinds)) == _fields(_box_spectrum(lat, e_max, kinds))
