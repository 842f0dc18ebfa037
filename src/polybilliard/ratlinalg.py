"""Small exact linear-algebra helpers over the integers.

Everything here is deliberately tiny and dependency-free: a sparse
fraction-free echelon over Z for rank and determinant bookkeeping, and the
Hermite normal form of the lattice d * Z^n * A^-1, computed over sparse rows
modulo d with a per-column index of the rows nonzero there.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd

__all__ = [
    "IntegerEchelon",
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


def hnf_inverse(a: list[list[int]], d: int) -> list[list[int]]:
    """Hermite basis of d * Z^n * A^-1, for a nonsingular n x n integer matrix A.

    d is a positive multiple of |det A|, so d * A^-1 is integral.  The rows of
    [[A | I], [d*I | 0]] generate the pairs (x*A + d*y, x); those with a zero
    left half are x in d * Z^n * A^-1, and their Hermite basis is the rows of
    the stacked Hermite form with a zero left half (Cohen 1993, section 2.4).
    That lattice holds d * Z^n, so the stacked one holds d times every unit
    row: those 2n rows stay implicit and every entry is kept modulo d
    (Domich, Kannan & Trotter 1987; Cohen 1993, Alg. 2.4.8).

    Columns are cleared left to right over sparse rows, through an index of
    the rows nonzero in each column.  A column's rows reduce to one row R,
    which meets the implicit row d*e_c: with g = gcd(R_c, d) and u*R_c = g
    mod d, the pair becomes the pivot row u*R + v*d*e_c (entry g) and
    (d/g)*R (entry 0 mod d), a unimodular step.  A left half pivot row is
    dropped, a right half one is an output row, reduced into the rows
    above it.  The output has positive pivots with the entries above each
    pivot in [0, pivot): the Hermite form, which is unique.
    """
    n, d = len(a), int(d)
    # row i < n starts as row i of [A | I]; row n + c is the output row of pivot column c
    rows: dict[int, dict[int, int]] = {}
    where: dict[int, set[int]] = defaultdict(set)  # column -> rows nonzero there

    def put(i: int, row: dict[int, int]) -> None:
        old = rows.pop(i, {})
        for c in old.keys() - row.keys():
            where[c].discard(i)
        for c in row.keys() - old.keys():
            where[c].add(i)
        if row:
            rows[i] = row

    def minus(i: int, q: int, p: dict[int, int]) -> None:
        """Row i minus q times row p, modulo d in the columns of p."""
        row = dict(rows[i])
        for c, x in p.items():
            if s := (row.get(c, 0) - q * x) % d:
                row[c] = s
            else:
                row.pop(c, None)
        put(i, row)

    for i, r in enumerate(a):
        row = {c: s for c, x in enumerate(r) if x and (s := x % d)}
        if d > 1:
            row[n + i] = 1
        put(i, row)
    for c in range(2 * n):
        live = [i for i in where[c] if i < n]
        while len(live) > 1:
            p = min(live, key=lambda i: rows[i][c])
            for i in live:
                if i != p:
                    minus(i, rows[i][c] // rows[p][c], rows[p])
            live = [i for i in live if i in rows and c in rows[i]]
        if live:
            r = rows[live[0]]
            g = gcd(r[c], d)
            u = pow(r[c] // g, -1, d // g)  # u * R_c = g mod d
            pivot = {k: s for k, x in r.items() if k != c and (s := u * x % d)}
            put(live[0], {k: s for k, x in r.items() if k != c and (s := d // g * x % d)})
        else:
            g, pivot = d, {}
        if c < n:
            continue
        pivot[c] = g
        for i in [i for i in where[c] if i >= n and rows[i][c] >= g]:
            minus(i, rows[i][c] // g, pivot)
        put(n + c, pivot)
    out = [[0] * n for _ in range(n)]
    for row, i in zip(out, range(2 * n, 3 * n)):
        for c, x in rows[i].items():
            row[c - n] = x
    return out
