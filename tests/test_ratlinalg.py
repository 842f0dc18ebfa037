"""Exact linear algebra helpers and rational approximation."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polybilliard.approx import as_rational, best_rational, convergents
from polybilliard.errors import OutOfRange
from polybilliard.ratlinalg import IntegerEchelon, hnf_inverse


# --- IntegerEchelon ---------------------------------------------------------

def test_echelon_rank_tracking():
    e = IntegerEchelon(3)
    assert e.try_insert([1, 0, 1])
    assert not e.try_insert([2, 0, 2])
    assert e.try_insert([0, 1, 0])
    assert not e.try_insert([3, 5, 3])
    with pytest.raises(ValueError):
        e.det  # rank 2 of 3
    assert e.try_insert([0, 0, 1])
    assert not e.try_insert([7, -2, 9])  # full rank now
    assert e.det == 1


def test_echelon_residual_zero_for_combination():
    # a combination reduces to zero against the stored rows: not inserted
    e = IntegerEchelon(4)
    v1 = [1, 2, 0, 1]
    v2 = [0, 2, 3, 0]
    assert e.try_insert(v1)
    assert e.try_insert(v2)
    assert not e.try_insert([3 * a - 2 * b for a, b in zip(v1, v2)])
    assert e.try_insert([0, 0, 0, 5])


def _fraction_det(a):
    """|det a| by Fraction elimination (test oracle)."""
    m = [[Fraction(x) for x in row] for row in a]
    n, det = len(m), Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
        m[c], m[piv] = m[piv], m[c]
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return abs(det)


def _fraction_inverse(a):
    """Exact inverse by Fraction Gauss-Jordan (test oracle)."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c])
        m[c], m[piv] = m[piv], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


def test_echelon_det_and_hnf_inverse_match_fraction_route():
    """Sweep random small integer matrices, many of them not unimodular:
    the echelon's det is |det A|, and the integer Hermite step divided by it
    equals the Hermite form of A^-1 taken through a Fraction inverse."""
    rng = random.Random(7)
    seen_nonunimodular = 0
    for _ in range(300):
        n = rng.randrange(1, 6)
        a = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(n)] for _ in range(n)]
        e = IntegerEchelon(n)
        independent = all([e.try_insert(row) for row in a])
        d = _fraction_det(a)
        assert independent == (d != 0)
        if not d:
            continue
        assert e.det == d
        seen_nonunimodular += d > 1
        inv = _fraction_inverse(a)
        den = math.lcm(*(x.denominator for row in inv for x in row))
        want = [[Fraction(h, den) for h in row]
                for row in hnf_rows([[int(x * den) for x in row] for row in inv])]
        got = [[Fraction(h, d) for h in row] for row in hnf_inverse(a, d)]
        assert got == want
    assert seen_nonunimodular > 100


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


# --- hnf_rows: the dense Hermite form, the oracle of hnf_inverse --------------

def hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Hermite basis (row style) of the integer lattice generated by ``rows``.

    Output rows are in echelon order with positive pivots and the entries
    above each pivot reduced into [0, pivot).
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return []
    r = 0
    for c in range(len(work[0])):
        live = [i for i in range(r, len(work)) if work[i][c]]
        while len(live) > 1:
            live.sort(key=lambda i: abs(work[i][c]))
            i0 = live[0]
            for i in live[1:]:
                q = work[i][c] // work[i0][c]
                work[i] = [x - q * y for x, y in zip(work[i], work[i0])]
            live = [i for i in live if work[i][c]]
        if not live:
            continue
        work[r], work[live[0]] = work[live[0]], work[r]
        if work[r][c] < 0:
            work[r] = [-x for x in work[r]]
        for i in range(r):
            q = work[i][c] // work[r][c]
            if q:
                work[i] = [x - q * y for x, y in zip(work[i], work[r])]
        r += 1
    return work[:r]


def dense_hnf_inverse(a: list[list[int]], d: int) -> list[list[int]]:
    """hnf_inverse as the dense Hermite form of [[A | I], [d*I | 0]]."""
    n = len(a)
    rows = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(a)]
    rows += [[d * (i == j) for j in range(n)] + [0] * n for i in range(n)]
    return [r[n:] for r in hnf_rows(rows) if not any(r[:n])]


def test_sparse_hnf_inverse_matches_dense_route():
    """Random nonsingular matrices, sparse and dense, with d = |det A| and
    with multiples of it: the modular sparse form equals the dense one."""
    rng = random.Random(31)
    seen = {"d > 1": 0, "d = 1": 0, "multiple": 0}
    for trial in range(400):
        n = rng.randrange(1, 9)
        fill = rng.choice((0.2, 0.5, 1.0))
        a = [[rng.randrange(-5, 6) if rng.random() < fill else 0 for _ in range(n)]
             for _ in range(n)]
        if trial % 4 == 0:  # unimodular: the identity under row operations
            a = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(3 * n):
                i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
                if i != j:
                    a[i] = [x + rng.choice((-2, -1, 1, 3)) * y for x, y in zip(a[i], a[j])]
        det = _fraction_det(a)
        if not det:
            continue
        d = int(det) * rng.choice((1, 1, 1, 2, 3, 12))
        seen["multiple" if d != det else "d > 1" if d > 1 else "d = 1"] += 1
        assert hnf_inverse(a, d) == dense_hnf_inverse(a, d), (a, d)
    assert min(seen.values()) > 10, seen


# --- hnf_rows ---------------------------------------------------------------

def test_hnf_rows_fixed_cases():
    assert hnf_rows([[2, 0], [0, 3]]) == [[2, 0], [0, 3]]
    assert hnf_rows([[2, 1], [1, 1]]) == [[1, 0], [0, 1]]
    assert hnf_rows([[3, 0], [5, 0]]) == [[1, 0]]  # gcd along one axis
    assert hnf_rows([[2, 4], [4, 8]]) == [[2, 4]]  # rank drop
    assert hnf_rows([[0, 0]]) == []
    assert hnf_rows([[1, 9], [0, 7]]) == [[1, 2], [0, 7]]  # reduce above pivot
    assert hnf_rows([[-4, -6]]) == [[4, 6]]  # pivot sign normalized


def test_hnf_rows_is_lattice_invariant():
    rng = random.Random(23)
    for _ in range(25):
        rows = [[rng.randrange(-6, 7) for _ in range(3)] for _ in range(4)]
        base = hnf_rows(rows)
        # unimodular shenanigans: shuffle, negate, add one row to another
        other = [list(r) for r in rows]
        rng.shuffle(other)
        other[0] = [-x for x in other[0]]
        other.append([a + b for a, b in zip(other[1], other[2])])
        assert hnf_rows(other) == base
