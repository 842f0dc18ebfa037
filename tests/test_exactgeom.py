"""Polygon construction: exact closure, self-intersection, angle utilities."""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polybilliard import exactgeom, shapes
from polybilliard.errors import (
    CannotBalance,
    ClosureViolation,
    NonCoprimeAngle,
    NonpositiveLength,
    OutOfRange,
    SelfIntersection,
    SingularSystem,
)
from polybilliard.exactgeom import (
    ExactFrame,
    FloatFrame,
    Polygon,
    RationalAngle,
    load_polygon,
    make_frame,
    polygon_from_spec,
    rationalize_angles,
    solve_closure,
    validate_polygon,
)

POLYGONS = Path(__file__).resolve().parent.parent / "polygons"


# --- RationalAngle ----------------------------------------------------------

def test_rational_angle_parsing():
    a = RationalAngle.make("3/2")
    assert (a.p, a.q) == (3, 2)
    assert RationalAngle.make(Fraction(1, 2)).q == 2
    assert RationalAngle.make((2, 3)).frac == Fraction(2, 3)
    assert RationalAngle.make(1).frac == 1


def test_rational_angle_reduces_with_warning():
    line = sys._getframe().f_lineno + 2
    with pytest.warns(NonCoprimeAngle) as caught:
        a = RationalAngle(2, 4)
    assert (a.p, a.q) == (1, 2)
    # the warning names the caller's line, not the constructor's
    assert (caught[0].filename, caught[0].lineno) == (__file__, line)


def test_rational_angle_compares_and_hashes_by_value():
    a, b = RationalAngle(1, 3), RationalAngle.make("1/3")
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != RationalAngle(2, 3) and a != (1, 3)
    assert len({a, b, RationalAngle(2, 3)}) == 2
    assert RationalAngle(p=1, q=3) == a


def test_rational_angle_range():
    with pytest.raises(OutOfRange):
        RationalAngle(2, 1)  # = 2pi
    with pytest.raises(OutOfRange):
        RationalAngle(0, 1)
    with pytest.raises(OutOfRange):
        RationalAngle(-1, 2)


# --- validate_polygon -------------------------------------------------------

def test_unit_square_valid():
    p = shapes.square()
    assert p.n == 4
    assert p.N == 2
    assert p.frame.exact
    for got, want in zip(p.vertices_float(), [0, 1, 1 + 1j, 1j]):
        assert got == pytest.approx(want, abs=1e-12)
    assert p.dirs == (0, 1, 2, 3)


def test_polygon_record_forms_and_identity():
    p = shapes.square()
    parts = (p.angles, p.lengths, p.frame, p.dirs, p.verts)
    bare, named = Polygon(*parts), Polygon(*parts, name="sq")
    keywords = Polygon(angles=p.angles, lengths=p.lengths, frame=p.frame, dirs=p.dirs,
                       verts=p.verts, name=None)
    assert bare.name is None and keywords.name is None and named.name == "sq"
    assert (bare.n, bare.N, bare.dirs) == (4, 2, p.dirs)
    assert bare == bare and bare != keywords and len({bare, keywords}) == 2


def test_broken_rectangle_valid():
    p = shapes.l_shape(1, 1, 2, 2)
    assert p.n == 6
    assert p.N == 2
    for got, want in zip(p.vertices_float(), [0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j]):
        assert got == pytest.approx(want, abs=1e-12)
    assert p.angle_sum() == 4


def test_square_with_bad_length_fails_closure():
    with pytest.raises(ClosureViolation):
        validate_polygon(["1/2"] * 4, [1, 1, 1, 2])


def test_angle_sum_must_match():
    # four right angles on a pentagon cannot close
    with pytest.raises(ClosureViolation):
        validate_polygon(["1/2"] * 5, [1, 1, 1, 1, 1])


def test_nonpositive_length_rejected():
    with pytest.raises(NonpositiveLength):
        validate_polygon(["1/2"] * 4, [1, 0, 1, 1])


def test_self_intersecting_zigzag_rejected():
    # an orthogonal octagon whose closing side crosses an earlier one at (0,1)
    angles = ["1/2", "1/2", "3/2", "3/2", "1/2", "1/2", "1/2", "1/2"]
    lengths = [1, 1, 3, 1, 3, 1, 1, 3]
    with pytest.raises(SelfIntersection):
        validate_polygon(angles, lengths)


def test_exact_closure_of_golden_triangle():
    p = shapes.isosceles_pi5()
    assert p.N == 5
    assert p.frame.exact
    leg = p.lengths[1]
    # legs are the golden ratio: x^2 = x + 1 exactly
    assert (leg * leg - leg - p.frame.field.one()).is_zero()
    assert float(leg) == pytest.approx((1 + math.sqrt(5)) / 2)


def test_broken_parallelogram_instance():
    p = shapes.broken_parallelogram()
    assert p.N == 6
    assert p.n == 6
    vs = p.vertices_float()
    s3 = math.sqrt(3)
    want = [0, 2, 3 + s3 * 1j, 2.25 + 1.25 * s3 * 1j, 2.75 + 1.75 * s3 * 1j, 2 + 2 * s3 * 1j]
    for got, expect in zip(vs, want):
        assert got == pytest.approx(expect)


def test_float_mode_for_huge_denominators():
    p = shapes.right_triangle_rationalized()
    assert p.N == 1000
    assert not p.frame.exact
    # chain still closes to float tolerance and the right angle is at vertex 2
    vs = p.vertices_float()
    u = vs[0] - vs[2]
    v = vs[1] - vs[2]
    inner = (u.conjugate() * v).real
    assert inner == pytest.approx(0.0, abs=1e-9)


def test_exact_vertices_match_floats():
    p = shapes.broken_parallelogram()
    for v, z in zip(p.verts, p.vertices_float()):
        assert abs(complex(v) - z) < 1e-12


# --- solve_closure ----------------------------------------------------------

def test_solve_closure_rectangle():
    out = solve_closure(["1/2"] * 4, [2, 1, None, None])
    assert out == [2, 1, 2, 1]


def test_solve_closure_parallelogram():
    out = solve_closure(
        ["2/3", "1/3", "2/3", "1/3"], [Fraction(2, 3), 1, None, None]
    )
    assert [float(v) for v in out] == pytest.approx([2 / 3, 1, 2 / 3, 1])
    # exact values: the solved sides mirror the fixed ones
    assert out[2].as_fraction() == Fraction(2, 3)
    assert out[3].as_fraction() == 1


def test_solve_closure_l_shape():
    angles = ["1/2", "1/2", "3/2", "1/2", "1/2", "1/2"]
    out = solve_closure(angles, [2, 1, None, None, 1, 2])
    assert [float(v) for v in out] == pytest.approx([2, 1, 1, 1, 1, 2])


def test_solve_closure_requires_two_unknowns():
    with pytest.raises(OutOfRange):
        solve_closure(["1/2"] * 4, [1, 1, 1, None])
    with pytest.raises(OutOfRange):
        solve_closure(["1/2"] * 4, [None, None, None, 1])


def test_solve_closure_parallel_unknowns_singular():
    # opposite sides of a rectangle are parallel: the 2x2 system is singular
    with pytest.raises(SingularSystem):
        solve_closure(["1/2"] * 4, [None, 1, None, 1])


def test_solve_closure_negative_solution_rejected():
    # a valid direction chain whose unique completion needs a negative length:
    # fixing y1=3 but y2=2 forces the notch side y2-y1 below zero
    angles = ["1/2", "1/2", "3/2", "1/2", "1/2", "1/2"]
    with pytest.raises(NonpositiveLength):
        solve_closure(angles, [None, 3, 1, None, 3, 2])


def _built_once(monkeypatch, build):
    """`build()`, asserting that it makes exactly one frame."""
    calls = []
    make = exactgeom.make_frame
    monkeypatch.setattr(exactgeom, "make_frame", lambda angles: calls.append(1) or make(angles))
    poly = build()
    monkeypatch.undo()
    assert len(calls) == 1
    return poly


def _assert_solves_like_solve_closure(monkeypatch, angles, lengths):
    # two unknown lengths solved on the polygon's own frame give the polygon
    # that solve_closure's lengths give
    got = _built_once(monkeypatch, lambda: validate_polygon(angles, lengths))
    want = validate_polygon(angles, solve_closure(angles, lengths))
    assert (got.lengths, got.verts, got.dirs) == (want.lengths, want.verts, want.dirs)
    assert (type(got.frame), got.N) == (type(want.frame), want.N)


def test_bundled_spec_solves_its_unknowns_on_one_frame(monkeypatch):
    spec = json.loads((POLYGONS / "isosceles_pi5.json").read_text())
    angles = [side["angle"] for side in spec["sides"]]
    lengths = [Fraction(side["length"]) if "length" in side else None for side in spec["sides"]]
    assert lengths.count(None) == 2
    _assert_solves_like_solve_closure(monkeypatch, angles, lengths)
    _built_once(monkeypatch, lambda: load_polygon(POLYGONS / "isosceles_pi5.json"))
    for make in (shapes.isosceles_pi5, shapes.right_triangle_rationalized):
        _built_once(monkeypatch, make)


@st.composite
def _right_triangle_angles(draw):
    """Angles (a/N, 1/2, 1/2 - a/N) of a right triangle, exact and float frames alike."""
    n = draw(st.integers(3, 120))
    a = draw(st.sampled_from([a for a in range(1, (n + 1) // 2) if math.gcd(a, n) == 1]))
    return [Fraction(a, n), Fraction(1, 2), Fraction(1, 2) - Fraction(a, n)]


@settings(max_examples=40, deadline=None)
@given(_right_triangle_angles(), st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50))
def test_right_triangle_solves_its_unknowns_on_one_frame(angles, side):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_solves_like_solve_closure(monkeypatch, angles, [side, None, None])


@pytest.mark.parametrize("angles, lengths, error", [
    (["1/2"] * 4, [1, None, 1, 1], ValueError),  # one unknown
    (["1/2"] * 4, [None, None, None, 1], ValueError),  # three
    (["1/2"] * 4, [None, 1, None, 1], SingularSystem),  # opposite sides are parallel
    (["1/2"] * 4, [1, 0, None, None], NonpositiveLength),
    # fixing y1=3 but y2=2 forces the notch side y2-y1 below zero
    (["1/2", "1/2", "3/2", "1/2", "1/2", "1/2"], [None, 3, 1, None, 3, 2], NonpositiveLength),
])
def test_validate_polygon_unknown_lengths_errors(angles, lengths, error):
    with pytest.raises(error):
        validate_polygon(angles, lengths)


# --- rationalize_angles ------------------------------------------------------

def test_rationalize_passthrough_rational():
    out = rationalize_angles([math.pi / 3, math.pi / 3, math.pi / 3], 10)
    assert [a.frac for a in out] == [Fraction(1, 3)] * 3


def test_rationalize_right_triangle_best_approximation():
    angs = [math.sqrt(2) / 4 * math.pi, (2 - math.sqrt(2)) / 4 * math.pi, math.pi / 2]
    out = rationalize_angles(angs, 1000)
    fr = [a.frac for a in out]
    assert sum(fr) == 1
    assert fr[2] == Fraction(1, 2)
    # sqrt(2)/4 best-approximates to 204/577 and (2-sqrt(2))/4 to 35/239;
    # the sum then misses 1 by 1/275806, and rebalancing the largest
    # denominator gives 204/577 + 1/275806 = 169/478 exactly.
    assert fr[1] == Fraction(35, 239)
    assert fr[0] == Fraction(204, 577) + (1 - Fraction(204, 577) - Fraction(35, 239) - Fraction(1, 2))
    assert fr[0] == Fraction(169, 478)
    assert abs(float(fr[1]) - (2 - math.sqrt(2)) / 4) < 1e-5


def test_rationalize_fixed_denominator_reproduces_decimals():
    angs = [math.sqrt(2) / 4 * math.pi, (2 - math.sqrt(2)) / 4 * math.pi, math.pi / 2]
    out = rationalize_angles(angs, 1000, fixed_denominator=1000)
    fr = [a.frac for a in out]
    assert fr == [Fraction(353, 1000), Fraction(147, 1000), Fraction(1, 2)]
    assert sum(fr) == 1


def test_rationalize_balances_sum():
    # three nearly-60-degree angles must rebalance to exactly pi
    angs = [math.pi / 3 + 1e-4, math.pi / 3 - 2e-4, math.pi / 3 + 1e-4]
    out = rationalize_angles(angs, 50)
    assert sum(a.frac for a in out) == 1


def test_rationalize_rejects_tiny_angle():
    with pytest.raises(CannotBalance):
        rationalize_angles([1e-4, math.pi / 2, math.pi - 1e-4 - math.pi / 2], 5)


def test_rationalize_range_checks():
    with pytest.raises(OutOfRange):
        rationalize_angles([0.0, 1.0, 1.0], 10)
    with pytest.raises(OutOfRange):
        rationalize_angles([1.0, 1.0, 1.0], 1)


# --- polygon files ----------------------------------------------------------

def test_polygon_from_spec_square():
    data = {
        "name": "unit square",
        "sides": [{"angle": "1/2", "length": "1"} for _ in range(4)],
    }
    p = polygon_from_spec(data)
    assert p.name == "unit square"
    assert p.n == 4


def test_polygon_from_spec_solves_missing_lengths():
    data = {
        "sides": [
            {"angle": "2/5", "length": "1"},
            {"angle": "1/5"},
            {"angle": "2/5"},
        ]
    }
    p = polygon_from_spec(data)
    assert float(p.lengths[1]) == pytest.approx((1 + math.sqrt(5)) / 2)


def test_polygon_from_spec_rejects_one_missing():
    data = {
        "sides": [
            {"angle": "1/2", "length": "1"},
            {"angle": "1/2"},
            {"angle": "1/2", "length": "1"},
            {"angle": "1/2", "length": "1"},
        ]
    }
    with pytest.raises(ValueError):
        polygon_from_spec(data)


def test_polygon_from_spec_rejects_garbage():
    with pytest.raises(ValueError):
        polygon_from_spec({"sides": "nope"})
    with pytest.raises(ValueError):
        polygon_from_spec({})
    with pytest.raises(ValueError):
        polygon_from_spec({"sides": [{"length": "1"}] * 3})
    with pytest.raises(ValueError):
        polygon_from_spec({"sides": [{"angle": "x/y"}] * 3})


def test_load_polygon_roundtrip(tmp_path):
    import json

    f = tmp_path / "sq.json"
    f.write_text(
        json.dumps(
            {"name": "sq", "sides": [{"angle": "1/2", "length": "3/2"}] * 4}
        )
    )
    from polybilliard.exactgeom import load_polygon

    p = load_polygon(f)
    assert p.lengths == (Fraction(3, 2),) * 4


def test_load_polygon_bad_json(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    from polybilliard.exactgeom import load_polygon

    with pytest.raises(ValueError):
        load_polygon(f)


# --- frames -----------------------------------------------------------------

def test_make_frame_threshold():
    sq = [RationalAngle(1, 2)] * 4
    assert isinstance(make_frame(sq), ExactFrame)
    big = [RationalAngle(353, 1000), RationalAngle(1, 2), RationalAngle(147, 1000)]
    assert isinstance(make_frame(big), FloatFrame)


def test_frames_agree_on_unit_vectors():
    ef, ff = ExactFrame(6), FloatFrame(6)
    for j in range(12):
        assert abs(ef.to_complex(ef.unit(j)) - ff.unit(j)) < 1e-12


def test_frame_cross_dot():
    ef = ExactFrame(2)
    u = ef.from_xy(1, 0)
    v = ef.from_xy(0, Fraction(3, 2))
    assert ef.cross(u, v).as_fraction() == Fraction(3, 2)
    assert ef.dot(u, v).as_fraction() == 0
    assert ef.rational_value(ef.cross(u, v)) == Fraction(3, 2)


@st.composite
def real_quotients(draw):
    """(frame, num, den): real elements of Q(zeta_4N), den nonzero; half the
    numerators are r*den for a rational r (zero, negative or a proper fraction)."""
    frame = ExactFrame(draw(st.sampled_from([1, 2, 3, 5, 6, 10])))
    f = frame.field

    def real():
        coeffs = {}
        for _ in range(draw(st.integers(1, 6))):
            key = tuple(draw(st.integers(0, ph - 1)) for ph in f.phis)
            coeffs[key] = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
        return f.element(coeffs).real

    den = real()
    assume(not den.is_zero())
    if draw(st.booleans()):
        r = draw(st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=7)))
        return frame, den * r, den
    return frame, real(), den


@settings(max_examples=200, deadline=None)
@given(real_quotients())
def test_exact_quotient_matches_division(case):
    frame, num, den = case
    q = frame.quotient(num, den)
    exact = num / den  # the division route, by the norm inverse
    assert frame.rational_value(q) == frame.rational_value(exact)
    assert isinstance(q, Fraction) == exact.is_rational()
    assert float(q) == pytest.approx(float(exact), rel=1e-12)


def test_float_quotient_divides():
    assert FloatFrame(7).quotient(1.0, 3.0) == 1.0 / 3.0


_COORDS = st.fractions(min_value=-10, max_value=10, max_denominator=50)


@settings(max_examples=80, deadline=None)
@given(
    n=st.sampled_from((2, 3, 5, 6, 12)),
    xy=st.lists(_COORDS, min_size=4, max_size=4),
    js=st.lists(st.integers(-50, 50), min_size=2, max_size=2),
)
def test_frames_agree_on_shared_algebra(n, xy, js):
    ef, ff = ExactFrame(n), FloatFrame(n)
    x1, y1, x2, y2 = xy
    eu, fu = ef.from_xy(x1, y1), ff.from_xy(x1, y1)
    ev = ef.rotate(ef.from_xy(x2, y2), js[0]) + ef.unit(js[1])
    fv = ff.rotate(ff.from_xy(x2, y2), js[0]) + ff.unit(js[1])
    scale = max(1.0, abs(complex(fu)) * abs(complex(fv)))
    for exact, fl in ((eu, fu), (ev, fv), (ef.cross(eu, ev), ff.cross(fu, fv)),
                      (ef.dot(eu, ev), ff.dot(fu, fv))):
        assert abs(complex(exact) - complex(fl)) <= 1e-12 * scale


def test_frame_length_rules():
    ef, ff = ExactFrame(4), FloatFrame(4)
    for frame in (ef, ff):
        for bad in (True, None):
            with pytest.raises(TypeError):
                frame.length(bad)
    with pytest.raises(TypeError):
        ef.length(1.5)
    assert ef.length("3/2") == Fraction(3, 2) and ff.length(Fraction(3, 2)) == 1.5
    root2 = ef.unit(1) + ef.unit(-1)  # sqrt(2), a real field scalar
    assert ef.length(root2) is root2
    assert ef.positive(root2) and not ef.positive(-root2) and not ef.positive(ef.zero())
    assert ef.positive(Fraction(1, 10**400)) and not ef.positive(Fraction(0))
    assert ff.positive(1e-11) and not ff.positive(1e-13)
