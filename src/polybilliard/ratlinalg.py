"""Small exact linear-algebra helpers over the integers.

Everything here is deliberately tiny and dependency-free: a sparse
fraction-free echelon over Z for rank and determinant bookkeeping, and
Hermite normal forms of integer lattices.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = [
    "IntegerEchelon",
    "hnf_rows",
    "hnf_inverse",
]


class IntegerEchelon:
    """Incremental fraction-free row echelon over Z with sparse rows.

    ``try_insert`` reports whether a row is independent (over Q) of the rows
    kept so far, and keeps it if so: reduced, primitive, with a positive
    leading entry, as a dict {column: nonzero int} under its leading column.
    Once ``dim`` rows are in, ``det`` is |det| of the matrix they form.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._rows: dict[int, dict[int, int]] = {}
        self._det = Fraction(1)  # |det| of the inserted rows, once there are dim of them

    @property
    def det(self) -> int:
        if len(self._rows) != self.dim:
            raise ValueError(f"rank {len(self._rows)} is below dimension {self.dim}")
        return int(self._det)

    def try_insert(self, vec: list[int]) -> bool:
        v, mult = {i: x for i, x in enumerate(vec) if x}, 1
        while v and (c := min(v)) in self._rows:
            row = self._rows[c]
            g = gcd(row[c], v[c])
            a, b = row[c] // g, v[c] // g  # a*v - b*row clears column c
            mult *= a
            keys = v.keys() | row.keys()
            v = {i: s for i in keys if (s := a * v.get(i, 0) - b * row.get(i, 0))}
        if not v:
            return False
        c = min(v)
        content = gcd(*v.values()) if v[c] > 0 else -gcd(*v.values())
        self._rows[c] = {i: x // content for i, x in v.items()}
        # the stored row is (mult / content) * vec plus earlier rows, and its
        # pivot is v[c] / content: the echelon's |det| gains |v[c]| / mult
        self._det *= Fraction(abs(v[c]), mult)
        return True


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


def hnf_inverse(a: list[list[int]], d: int) -> list[list[int]]:
    """Hermite basis of d * Z^n * A^-1, for a nonsingular n x n integer matrix A.

    d is a positive multiple of |det A|, so d * A^-1 is integral.  The rows of
    [[A | I], [d*I | 0]] generate the pairs (x*A + d*y, x); those with a zero
    left half are x in d * Z^n * A^-1, and their Hermite basis is the rows of
    the stacked Hermite form with a zero left half (Cohen 1993, section 2.4).
    """
    n = len(a)
    rows = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(a)]
    rows += [[d * (i == j) for j in range(n)] + [0] * n for i in range(n)]
    return [r[n:] for r in hnf_rows(rows) if not any(r[:n])]
