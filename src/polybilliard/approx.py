"""Best rational approximation via continued fractions.

The rule used throughout the package is the classical one: the best
approximation of x with denominator at most Q is the last continued-fraction
convergent p/q with q <= Q.  It minimizes |q*x - p| over all denominators
up to Q and satisfies |x - p/q| <= 1/(q*Q).  (`Fraction.limit_denominator`
implements a slightly different criterion — minimal |x - p/q| — which may
return a semiconvergent violating that bound, so it is not used here.)
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction

from .errors import OutOfRange

__all__ = ["convergents", "best_rational", "as_rational"]


def _terms(x) -> Iterator[tuple[int, int]]:
    """(h, k) of each continued-fraction convergent h/k of x, in order.

    x is a float, Fraction or int; its partial quotients come from Euclid's
    divmod on the integer ratio p/q = x, so no Fraction is formed.
    """
    p, q = x.as_integer_ratio()
    h_prev, h, k_prev, k = 0, 1, 1, 0
    while True:
        a, r = divmod(p, q)
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
        yield h, k
        if r == 0:
            return
        p, q = q, r


def convergents(x: float | Fraction) -> Iterator[Fraction]:
    """Yield the continued-fraction convergents of an exact rational x.

    The sequence ends with x itself (every float is exactly rational, so
    feeding a float terminates).
    """
    for h, k in _terms(x):
        yield Fraction(h, k)


def best_rational(x: float | Fraction, max_den: int) -> Fraction:
    """Best rational approximation of x with denominator <= max_den.

    Minimizes |q*x - p|; equivalently, the last convergent with q <= max_den.
    """
    if max_den < 1:
        raise OutOfRange(f"max_den must be >= 1, got {max_den}")
    best = None
    for h, k in _terms(x):
        if k > max_den:
            break
        best = h, k
    return Fraction(*best)


def as_rational(x: float, max_den: int = 10**6, rel_tol: float = 1e-9) -> Fraction | None:
    """Heuristic rationality test for a float.

    Walks the continued fraction of x and accepts the first convergent p/q
    (q <= max_den) whose error is below rel_tol AND far below the generic
    1/q^2 convergent scale — i.e. the continued fraction "stabilizes" with a
    huge next partial quotient, the signature of a true rational observed
    through floating-point noise.  Genuine irrationals (sqrt(2), pi, the
    golden ratio) keep moderate partial quotients and are rejected.

    Both bounds are tested in integers: with x = P/Q exactly, the error of
    h/k is |P*k - h*Q| / (Q*k).
    """
    big_p, big_q = x.as_integer_ratio()
    tol_n, tol_d = (rel_tol * max(1.0, abs(x))).as_integer_ratio()
    for h, k in _terms(x):
        if k > max_den:
            break
        e = abs(big_p * k - h * big_q)
        if e * tol_d <= tol_n * big_q * k and 1000 * e * k <= big_q:
            return Fraction(h, k)
    return None
