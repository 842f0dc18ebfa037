"""Rational approximation: continued fractions, best approximations, exact floats."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polybilliard.approx import as_rational, best_rational, convergents
from polybilliard.errors import OutOfRange


# --- continued fractions ----------------------------------------------------

def test_convergents_of_rational_terminate():
    cs = list(convergents(Fraction(355, 113)))
    assert cs[-1] == Fraction(355, 113)
    assert cs[0] == 3


def test_best_rational_sqrt2():
    # denominators <= 100: the classical convergent 99/70 wins under the
    # |q*x - p| criterion (brute-forced below)
    assert best_rational(math.sqrt(2), 100) == Fraction(99, 70)
    assert best_rational(math.sqrt(2), 5) == Fraction(7, 5)
    assert best_rational(math.sqrt(2), 1) == Fraction(1, 1)


def test_best_rational_golden():
    phi = (1 + math.sqrt(5)) / 2
    assert best_rational(phi, 50) == Fraction(55, 34)


def test_best_rational_sqrt2_quarter():
    assert best_rational(math.sqrt(2) / 4, 1000) == Fraction(204, 577)


def test_best_rational_exact_input_passthrough():
    assert best_rational(Fraction(3, 7), 10) == Fraction(3, 7)
    # q=2 and q=5 tie under |q*x - p| (both 1/7); the smaller denominator wins
    assert best_rational(Fraction(3, 7), 6) == Fraction(1, 2)


def test_best_rational_requires_positive_max_den():
    with pytest.raises(OutOfRange):
        best_rational(1.5, 0)


def _brute_second_kind(x: Fraction, max_den: int) -> Fraction:
    best, best_err = None, None
    for q in range(1, max_den + 1):
        p = round(x * q)
        err = abs(x * q - p)
        if best_err is None or err < best_err:
            best, best_err = Fraction(p, q), err
    return best


@settings(max_examples=150, deadline=None)
@given(
    st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=10**6),
    st.integers(1, 60),
)
def test_best_rational_matches_brute_force(x, q_max):
    got = best_rational(x, q_max)
    want = _brute_second_kind(x, q_max)
    # compare by achieved |q*x - p| (the minimizer may be non-unique)
    assert abs(x * got.denominator - got.numerator) == abs(
        x * want.denominator - want.numerator
    )
    assert got.denominator <= q_max


@settings(max_examples=150, deadline=None)
@given(
    st.fractions(min_value=Fraction(0), max_value=Fraction(2), max_denominator=10**9),
    st.integers(2, 500),
)
def test_best_rational_error_bound(x, q_max):
    # |x - p/q| <= 1/(q*Q) — the classical guarantee of the convergent rule
    r = best_rational(x, q_max)
    assert abs(x - r) <= Fraction(1, r.denominator * q_max)


def test_as_rational_accepts_exact_floats():
    assert as_rational(0.5) == Fraction(1, 2)
    assert as_rational(2.75) == Fraction(11, 4)
    assert as_rational(float(Fraction(3, 7))) == Fraction(3, 7)


def test_as_rational_rejects_irrationals():
    assert as_rational(math.sqrt(2)) is None
    assert as_rational(math.pi) is None
    assert as_rational((1 + math.sqrt(5)) / 2) is None


# the Fraction-arithmetic walks that the integer ones replaced, kept as oracles
def ref_convergents(x: Fraction):
    h_prev, k_prev = 1, 0
    h, k = int(x // 1), 1
    yield Fraction(h, k)
    rem = x - (x // 1)
    while rem != 0:
        x = 1 / rem
        a = int(x // 1)
        rem = x - a
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
        yield Fraction(h, k)


def ref_best_rational(x, max_den: int) -> Fraction:
    xq = Fraction(x)
    best = Fraction(int(xq // 1))
    for c in ref_convergents(xq):
        if c.denominator > max_den:
            break
        best = c
    return best


def ref_as_rational(x: float, max_den: int = 10**6, rel_tol: float = 1e-9):
    xq = Fraction(x)
    scale = max(1.0, abs(x))
    for c in ref_convergents(xq):
        if c.denominator > max_den:
            break
        err = abs(xq - c)
        if err <= rel_tol * scale and err * c.denominator**2 <= Fraction(1, 1000):
            return c
    return None


_NEAR_RATIONAL = st.builds(
    lambda p, q, noise: p / q * (1 + noise),
    st.integers(-10**6, 10**6),
    st.integers(1, 10**6),
    st.sampled_from([0.0, 1e-16, -2e-15, 3e-13, -1e-10, 1e-7]),
)
_SURD = st.builds(
    lambda n, s: math.sqrt(n) * s,
    st.integers(2, 10**6),
    st.sampled_from([1, -1, 1 / 3, 1e-6, 1e6]),
)


@settings(max_examples=300, deadline=None)
@given(
    x=st.one_of(
        _NEAR_RATIONAL,
        _SURD,
        st.integers(-10**12, 10**12).map(float),
        st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False),
    ),
    max_den=st.sampled_from([1, 2, 7, 100, 10**6, 10**9]),
    rel_tol=st.sampled_from([1e-9, 1e-6, 0.0]),
)
def test_integer_continued_fractions_match_fraction_walks(x, max_den, rel_tol):
    got = as_rational(x, max_den, rel_tol)
    assert got == ref_as_rational(x, max_den, rel_tol)
    assert got is None or type(got) is Fraction
    got = best_rational(x, max_den)
    assert got == ref_best_rational(x, max_den) and type(got) is Fraction
    assert list(convergents(Fraction(x))) == list(ref_convergents(Fraction(x)))
    assert list(convergents(x)) == list(ref_convergents(Fraction(x)))
