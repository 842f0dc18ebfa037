import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polybilliard import exactgeom
from polybilliard.approx import best_rational
from polybilliard.cyclo import Cyclo
from polybilliard.errors import (
    DegeneratePair,
    NotDoublyRational,
    NotInLattice,
    OutOfRange,
)
from polybilliard.exactgeom import FloatFrame, polygon_from_spec
from polybilliard.lattice import (
    default_pair,
    period_lattice,
    rationalize_relations,
    reduce_period,
    with_pair,
)
from polybilliard.quantize import (
    momentum_aperiodic,
    momentum_periodic,
    periodic_skeleton_check,
    wavelength_report,
)
from polybilliard.shapes import (
    broken_parallelogram,
    isosceles_pi5,
    l_shape,
    parallelogram_pi3,
    square,
)
from polybilliard.unfold import Period, build_epp, period_basis


def lattice_of(polygon, pair_choice=None):
    epp = build_epp(polygon)
    return period_lattice(polygon.frame, period_basis(epp), pair_choice)


def parallelogram_sides(a):
    p = parallelogram_pi3(a)
    f = p.frame
    d1 = f.scalar(a) * (f.unit(0) + f.unit(1))
    d2 = f.scalar(a) * (f.unit(0) + f.unit(-1))
    return p, f, d1, d2


def vec_close(frame, v, w, tol=1e-9):
    return abs(frame.to_complex(v) - frame.to_complex(w)) <= tol


# --- square: the integrable g=1 case -----------------------------------------


def test_square_relations_empty():
    p = square(1)
    lat = lattice_of(p)
    assert lat.genus == 1
    assert lat.coeffs == ()
    assert lat.doubly_rational
    assert not lat.heuristic
    assert (lat.c1, lat.c2) == (1, 1)
    g1, g2 = lat.generators
    assert vec_close(p.frame, g1, lat.d1)
    assert vec_close(p.frame, g2, lat.d2)


def test_square_reduce_pair_members():
    p = square(1)
    lat = lattice_of(p)
    f = p.frame
    assert reduce_period(lat.basis[0], lat) in {(1, 0), (0, 1)}
    both = f.to_complex(lat.d1) + f.to_complex(lat.d2)
    assert reduce_period(lat.d1 + lat.d2, lat) == (1, 1)
    assert abs(both - 2 - 2j) < 1e-12


def test_square_half_period_not_in_lattice():
    p = square(1)
    lat = lattice_of(p)
    f = p.frame
    with pytest.raises(NotInLattice):
        reduce_period(f.scalar(Fraction(1, 2)) * lat.d1, lat)


# --- parallelogram: the worked doubly-rational example ------------------------


def test_parallelogram_explicit_basis_coefficients():
    a = Fraction(2, 3)
    _, f, d1, d2 = parallelogram_sides(a)
    inv = 1 / a
    basis = [
        Period(d1),
        Period(d2),
        Period(f.scalar(inv) * d1),
        Period(f.scalar(inv) * d2),
    ]
    rat = period_lattice(f, basis, pair_choice=(0, 1))
    assert rat.pair_indexes == (0, 1)
    assert rat.member_indexes == (2, 3)
    # 3/2 reduces to 1/2 after removing one whole period.
    assert [float(c) for c in rat.coeffs[0]] == pytest.approx([0.5, 0.0], abs=1e-12)
    assert [float(c) for c in rat.coeffs[1]] == pytest.approx([0.0, 0.5], abs=1e-12)
    assert rat.shifts == ((1, 0), (0, 1))

    assert rat.doubly_rational
    assert rat.fracs == ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 2)))
    assert (rat.c1, rat.c2) == (2, 2)
    assert not rat.heuristic


def test_parallelogram_reduce_scaled_period():
    a = Fraction(2, 3)
    _, f, d1, d2 = parallelogram_sides(a)
    inv = 1 / a
    basis = [
        Period(d1),
        Period(d2),
        Period(f.scalar(inv) * d1),
        Period(f.scalar(inv) * d2),
    ]
    rat = period_lattice(f, basis, pair_choice=(0, 1))
    assert reduce_period(basis[2], rat) == (3, 0)
    assert reduce_period(basis[3], rat) == (0, 3)
    assert reduce_period(basis[0], rat) == (rat.c1, 0)
    assert reduce_period(d1 + d2, rat) == (rat.c1, rat.c2)


def test_parallelogram_homology_basis_default_pair():
    a = Fraction(2, 3)
    p, f, d1, d2 = parallelogram_sides(a)
    lat = lattice_of(p)
    # Shortest two periods are D1-D2 (vertical, lex-first) and D1.
    assert vec_close(f, lat.d1, d1 - d2)
    assert vec_close(f, lat.d2, d1)
    assert (lat.c1, lat.c2) == (2, 2)
    assert lat.doubly_rational and not lat.heuristic


def test_parallelogram_exact_member_reconstruction():
    p = parallelogram_pi3(Fraction(2, 3))
    lat = lattice_of(p)
    f = p.frame
    for k, (a1, a2), (s1, s2) in zip(lat.member_indexes, lat.coeffs, lat.shifts):
        lhs = lat.basis[k].vector - f.scalar(s1) * lat.d1 - f.scalar(s2) * lat.d2
        rhs = a1 * lat.d1 + a2 * lat.d2
        assert f.is_zero(lhs - rhs)


# --- broken rectangle: the Fig.-style C_x=2, C_y=1 table ----------------------


def test_broken_rectangle_paper_periods():
    x1, y1, x2, y2 = 1, 1, Fraction(3, 2), 2
    p = l_shape(x1, y1, x2, y2)
    f = p.frame
    basis = [
        Period(f.from_xy(2 * x1, 0)),
        Period(f.from_xy(0, 2 * y1)),
        Period(f.from_xy(2 * x2, 0)),
        Period(f.from_xy(0, 2 * y2)),
    ]
    rat = period_lattice(f, basis, pair_choice=(0, 1))
    assert rat.doubly_rational
    assert (rat.c1, rat.c2) == (2, 1)
    assert rat.fracs[0][0] == Fraction(1, 2)  # 2*x2 = (3/2) * D1, reduced


def test_broken_rectangle_homology_basis_same_generators():
    x1, y1, x2, y2 = 1, 1, Fraction(3, 2), 2
    p = l_shape(x1, y1, x2, y2)
    f = p.frame
    lat = lattice_of(p)
    assert lat.doubly_rational
    g1, g2 = lat.generators
    paper = [
        Period(f.from_xy(2 * x1, 0)),
        Period(f.from_xy(0, 2 * y1)),
        Period(f.from_xy(2 * x2, 0)),
        Period(f.from_xy(0, 2 * y2)),
    ]
    rat = period_lattice(f, paper, pair_choice=(0, 1))
    h1 = f.scalar(Fraction(1, rat.c1)) * paper[0].vector
    h2 = f.scalar(Fraction(1, rat.c2)) * paper[1].vector
    gens = sorted((f.to_complex(g1), f.to_complex(g2)), key=lambda z: (z.real, z.imag))
    hens = sorted((f.to_complex(h1), f.to_complex(h2)), key=lambda z: (z.real, z.imag))
    assert gens == pytest.approx(hens)


# --- irrational relations: the golden-ratio triangle --------------------------


def test_isosceles_relations_irrational():
    p = isosceles_pi5()
    lat = lattice_of(p)
    assert lat.genus == 2
    assert not lat.doubly_rational
    with pytest.raises(NotDoublyRational):
        _ = lat.c1
    with pytest.raises(NotDoublyRational):
        _ = lat.generators
    with pytest.raises(NotDoublyRational):
        with_pair(lat, lat.pair_indexes[::-1])
    golden = (1 + math.sqrt(5)) / 2
    flat = [float(c) for row in lat.coeffs for c in row]
    # Coefficients are golden-ratio combinations; at least one lands on
    # 1/phi = phi - 1 up to integer reduction.
    assert any(abs(c - (golden - 1)) < 1e-9 for c in flat)


def test_isosceles_verdict_pair_independent():
    p = isosceles_pi5()
    epp = build_epp(p)
    basis = period_basis(epp)
    f = p.frame
    checked = 0
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if not f.is_zero(f.cross(basis[i].vector, basis[j].vector), scale=10.0):
                assert not period_lattice(f, basis, (i, j)).doubly_rational
                checked += 1
    assert checked >= 4


def test_drpb_verdict_pair_independent_rational_case():
    p = l_shape(1, 1, Fraction(3, 2), 2)
    basis = period_basis(build_epp(p))
    f = p.frame
    cs = set()
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if f.is_zero(f.cross(basis[i].vector, basis[j].vector), scale=10.0):
                continue
            rat = period_lattice(f, basis, (i, j))
            assert rat.doubly_rational
            cs.add((rat.c1, rat.c2))
    # Rationality is intrinsic even though the C_i values vary with the pair.
    assert len(cs) >= 1


# --- reduce/reconstruct round trip --------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: parallelogram_pi3(Fraction(2, 3)),
        lambda: l_shape(1, 1, Fraction(3, 2), 2),
        lambda: square(1),
    ],
)
def test_reduce_reconstruct_roundtrip(make):
    import random

    p = make()
    lat = lattice_of(p)
    f = p.frame
    rat = lat
    rng = random.Random(20240817)
    for _ in range(100):
        r1 = rng.randint(-40, 40)
        r2 = rng.randint(-40, 40)
        v = (
            f.scalar(Fraction(r1, rat.c1)) * lat.d1
            + f.scalar(Fraction(r2, rat.c2)) * lat.d2
        )
        assert reduce_period(v, rat) == (r1, r2)


def test_reduce_rejects_non_multiple():
    p = parallelogram_pi3(Fraction(2, 3))
    lat = lattice_of(p)
    f = p.frame
    with pytest.raises(NotInLattice):
        reduce_period(f.scalar(Fraction(1, 3)) * lat.d1, lat)


# --- pair selection and degeneracy --------------------------------------------


def test_default_pair_requires_independence():
    f = FloatFrame(2)
    collinear = [Period(complex(1, 0)), Period(complex(3, 0)), Period(complex(-2, 0))]
    with pytest.raises(DegeneratePair):
        default_pair(f, collinear)


def test_explicit_collinear_pair_rejected():
    f = FloatFrame(2)
    basis = [Period(complex(1, 0)), Period(complex(2, 0)), Period(complex(0, 1))]
    with pytest.raises(DegeneratePair):
        period_lattice(f, basis, pair_choice=(0, 1))
    with pytest.raises(ValueError):
        period_lattice(f, basis, pair_choice=(1, 1))


def test_default_pair_prefers_short_periods():
    f = FloatFrame(2)
    basis = [
        Period(complex(5, 0)),
        Period(complex(0, 1)),
        Period(complex(2, 0)),
        Period(complex(0, 7)),
    ]
    assert default_pair(f, basis) == (1, 2)


# --- float-mode heuristics -----------------------------------------------------


def test_float_mode_rational_verdict_flagged():
    f = FloatFrame(2)
    basis = [
        Period(complex(2, 0)),
        Period(complex(0, 2)),
        Period(complex(3, 0)),
        Period(complex(0, 5)),
    ]
    lat = period_lattice(f, basis, pair_choice=(0, 1))
    assert lat.doubly_rational
    assert lat.heuristic
    assert (lat.c1, lat.c2) == (2, 2)


def test_float_mode_irrational_detected():
    f = FloatFrame(2)
    basis = [
        Period(complex(2, 0)),
        Period(complex(0, 2)),
        Period(complex(2 * math.sqrt(2), 0)),
        Period(complex(0, 4)),
    ]
    lat = period_lattice(f, basis, pair_choice=(0, 1))
    assert not lat.doubly_rational


def test_float_table_decides_each_coordinate_once(monkeypatch):
    # triangle 3/44: 20 member periods, 40 coordinates; each coordinate's one
    # rationality test gives both its shift and its fraction
    poly = _right_triangle(3, 44)
    basis = period_basis(build_epp(poly))
    calls = []
    as_rational = exactgeom.as_rational
    monkeypatch.setattr(exactgeom, "as_rational", lambda x: calls.append(x) or as_rational(x))
    lat = period_lattice(poly.frame, basis)
    assert not lat.frame.exact and 2 * len(lat.coeffs) == 40
    assert lat.fracs is None and len(calls) == 40


# --- rationalization -----------------------------------------------------------


def test_rationalize_scalar_sqrt2():
    got = best_rational(math.sqrt(2), 100)
    assert got == Fraction(99, 70)
    assert abs(math.sqrt(2) - 99 / 70) <= 1 / (70 * 100)


def test_rationalize_scalar_golden():
    golden = (1 + math.sqrt(5)) / 2
    got = best_rational(golden, 50)
    assert got == Fraction(55, 34)
    assert abs(golden - 55 / 34) <= 1 / (34 * 50)


def test_rationalize_passes_rationals_through():
    assert best_rational(Fraction(3, 2), 17) == Fraction(3, 2)
    assert best_rational(7, 10) == Fraction(7)


def test_rationalize_requires_cap_of_two():
    with pytest.raises(OutOfRange):
        rationalize_relations(lattice_of(isosceles_pi5()), 1)


def test_rationalize_relations_table():
    p = isosceles_pi5()
    lat = lattice_of(p)
    rat = rationalize_relations(lat, 50)
    assert rat.doubly_rational
    assert not rat.heuristic  # an exact frame: the substituted billiard is exact
    assert rat.pair_indexes == lat.pair_indexes
    for (f1, f2), (a1, a2) in zip(rat.fracs, lat.coeffs):
        for frac, val in ((f1, float(a1)), (f2, float(a2))):
            assert frac.denominator <= 50
            assert abs(val - float(frac)) <= 1 / (frac.denominator * 50) + 1e-15


def test_rationalize_relations_keeps_the_pair_fields():
    lat = lattice_of(isosceles_pi5())
    rat = rationalize_relations(lat, 50)
    assert rat != lat and type(rat) is type(lat)
    kept = ("frame", "pair_indexes", "shifts")
    assert all(getattr(rat, name) is getattr(lat, name) for name in kept)
    # derived from the basis, so equal rather than the same objects
    assert (rat.det, rat.member_indexes) == (lat.det, lat.member_indexes)
    assert rat.coeffs == rat.fracs and len(rat.basis) == len(lat.basis)


def test_rationalize_exact_table_is_identity():
    p = parallelogram_pi3(Fraction(2, 3))
    lat = lattice_of(p)
    rat = rationalize_relations(lat, 1000)
    assert not rat.heuristic
    assert rat.fracs == lat.fracs
    f = lat.frame
    assert all(f.is_zero(a.vector - b.vector) for a, b in zip(rat.basis, lat.basis))


def test_rationalize_float_table_is_identity():
    # the float-frame twin: a table of Fractions is its own rational value in
    # a float frame too, so its denominators, which reach 301,960,582 over
    # the pairs of this substitute, are not rounded through as_rational's 10^6
    lat = lattice_of(_right_triangle(3, 44))
    assert not lat.frame.exact
    sub = rationalize_relations(lat, 10)
    n = len(sub.basis)
    for pair in ((i, j) for i in range(n) for j in range(n) if i != j):
        moved = with_pair(sub, pair)
        assert rationalize_relations(moved, 1000).fracs == moved.fracs


# --- report --------------------------------------------------------------------


def test_report_rational_and_irrational():
    lat = lattice_of(parallelogram_pi3(Fraction(2, 3)))
    text = lat.report()
    assert "doubly rational: yes" in text
    assert "C1 = 2, C2 = 2" in text
    assert "1/2" in text

    tri = lattice_of(isosceles_pi5())
    assert "doubly rational: no" in tri.report()


# --- the q/p family law ----------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    a=st.fractions(
        min_value=Fraction(1, 4), max_value=Fraction(9, 4), max_denominator=9
    )
)
def test_scaled_pair_family_has_c_equal_numerator(a):
    f = FloatFrame(6)
    d1 = complex(1.0, 0.25)
    d2 = complex(0.125, 1.0)
    inv = 1 / a
    basis = [
        Period(d1),
        Period(d2),
        Period(float(inv) * d1),
        Period(float(inv) * d2),
    ]
    rat = period_lattice(f, basis, pair_choice=(0, 1))
    assert rat.doubly_rational
    assert rat.c1 == rat.c2 == a.numerator
    assert reduce_period(basis[2], rat) == (a.denominator, 0)


# --- no field division ------------------------------------------------------------


def _refuse_inverse(self):
    raise AssertionError("a field element was inverted")


@pytest.mark.parametrize(
    "make",
    [
        square,
        lambda: l_shape(1, 1, Fraction(3, 2), 2),
        parallelogram_pi3,
        isosceles_pi5,
        broken_parallelogram,
    ],
)
def test_lattice_coordinates_never_invert(make, monkeypatch):
    polygon = make()  # solve_closure may still invert
    f = polygon.frame
    assert f.exact
    basis = period_basis(build_epp(polygon))
    monkeypatch.setattr(Cyclo, "inverse", _refuse_inverse)

    lat = period_lattice(f, basis)
    own = lat.pair_indexes
    pairs = [
        (i, j)
        for i in range(len(basis))
        for j in range(len(basis))
        if i != j and not f.cross(basis[i].vector, basis[j].vector).is_zero()
    ]
    other = next(pair for pair in pairs if pair != own)
    assert period_lattice(f, basis, other).doubly_rational == lat.doubly_rational

    sub = rationalize_relations(lat, 50)
    assert not sub.heuristic
    assert reduce_period(sub.d1, sub) == (sub.c1, 0)
    assert reduce_period(sub.d2, sub) == (0, sub.c2)
    if not lat.doubly_rational:
        with pytest.raises(NotInLattice):  # an irrational coordinate, decided exactly
            reduce_period(basis[lat.member_indexes[0]], sub)

    for pair in pairs:
        data = periodic_skeleton_check(sub, pair)
        if data is None:
            continue
        d2 = sub.basis[data.direction_index].vector
        for per in sub.basis:
            if f.cross(per.vector, d2).is_zero():
                along = momentum_periodic(sub, data, 1, along=per)
                assert along.vector == pytest.approx(data.periodic(1))

    momentum = momentum_aperiodic(sub, 1, 2)
    assert all(entry.ok for entry in wavelength_report(sub, momentum))


# --- the substituted billiard ---------------------------------------------------


def test_rationalized_billiard_is_an_ordinary_lattice():
    lat = lattice_of(isosceles_pi5())
    sub = rationalize_relations(lat, 50)
    assert sub.doubly_rational
    assert (sub.c1, sub.c2) == (34, 34)
    for pair in [(1, 0), (0, 2), (2, 3), (1, 3)]:
        periodic_skeleton_check(sub, pair)
    report = wavelength_report(sub, momentum_aperiodic(sub, 1, 2))
    assert all(entry.ok and isinstance(entry.law_count, int) for entry in report)
    for per in sub.basis:
        assert all(isinstance(r, int) for r in reduce_period(per, sub))


@pytest.mark.parametrize(
    "make",
    [
        lambda: lattice_of(l_shape(1, 1, Fraction(3, 2), 2)),
        lambda: lattice_of(parallelogram_pi3()),
        lambda: lattice_of(broken_parallelogram()),
        lambda: rationalize_relations(lattice_of(isosceles_pi5()), 50),
    ],
)
def test_with_pair_matches_period_lattice_in_exact_frames(make):
    lat = make()
    f, basis = lat.frame, lat.basis
    assert f.exact and lat.doubly_rational
    moved = 0
    for i in range(len(basis)):
        for j in range(len(basis)):
            if i == j:
                continue
            if f.cross(basis[i].vector, basis[j].vector).is_zero():
                with pytest.raises(DegeneratePair):
                    with_pair(lat, (i, j))
                continue
            got, want = with_pair(lat, (i, j)), period_lattice(f, basis, (i, j))
            assert got.pair_indexes == want.pair_indexes == (i, j)
            assert got.det == want.det
            assert got.member_indexes == want.member_indexes
            assert got.shifts == want.shifts
            assert got.fracs == want.fracs
            moved += 1
    assert moved > 0
    with pytest.raises(ValueError):
        with_pair(lat, (0, 0))


def _right_triangle(a: int, n: int):
    """The right triangle with angles (a/n, 1/2, 1/2 - a/n) pi and a unit first side."""
    angles = (Fraction(a, n), Fraction(1, 2), Fraction(1, 2) - Fraction(a, n))
    sides = [{"angle": str(angles[0]), "length": "1"}] + [{"angle": str(x)} for x in angles[1:]]
    return polygon_from_spec({"sides": sides})


def _fields(data):
    if data is None:
        return None
    return (data.k, data.alpha, data.direction_index, data.c1, data.c2, data.d1, data.d2)


def test_float_substitute_changes_pair_by_its_own_table():
    # re-deriving each pair through period_lattice caps denominators at 10^6
    # and refuses 164 of the 462 ordered pairs of this substitute (C1 = 71460);
    # the table itself is doubly rational over every pair
    lat = lattice_of(_right_triangle(3, 44))
    f = lat.frame
    assert not f.exact
    sub = rationalize_relations(lat, 10)
    assert (sub.c1, sub.c2) == (71460, 23820)
    n = len(sub.basis)
    refused = agreed = 0
    for pair in ((i, j) for i in range(n) for j in range(n) if i != j):
        got = periodic_skeleton_check(sub, pair)
        try:
            want = periodic_skeleton_check(period_lattice(f, sub.basis, pair))
        except NotDoublyRational:
            refused += 1
            continue
        assert _fields(got) == _fields(want)
        agreed += 1
    assert (refused, agreed) == (164, 298)
