"""Small exact linear-algebra helpers over `fractions.Fraction`.

Everything here is deliberately tiny and dependency-free: the package needs
exact solves, inverses and rank bookkeeping on small matrices, where
Gaussian elimination over Fraction is effortless and bit-exact.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SingularSystem

__all__ = [
    "solve_square",
    "inverse",
    "FractionEchelon",
    "hnf_rows",
]


def _gauss_jordan(mat: list[list[Fraction]], rhs: list[list[Fraction]]) -> list[list[Fraction]]:
    """Solve ``mat @ X = rhs`` exactly for n x n ``mat`` and n x k ``rhs``.

    Raises SingularSystem if the matrix is singular.
    """
    n = len(mat)
    a = [[Fraction(v) for v in row] + [Fraction(v) for v in rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise SingularSystem(f"matrix is singular at column {col}")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [row[n:] for row in a]


def solve_square(mat: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve ``mat @ x = rhs`` exactly; ``mat`` is n x n over the rationals.

    Raises SingularSystem if the matrix is singular.
    """
    return [row[0] for row in _gauss_jordan(mat, [[v] for v in rhs])]


def inverse(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse of the n x n rational matrix ``mat``.

    Raises SingularSystem if the matrix is singular.
    """
    n = len(mat)
    return _gauss_jordan(mat, [[int(i == j) for j in range(n)] for i in range(n)])


class FractionEchelon:
    """Incremental row-echelon form for exact rank tracking.

    Rows are inserted one at a time; ``try_insert`` reports whether the row
    was independent of the span collected so far (and keeps it if so).
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._rows: dict[int, list[Fraction]] = {}  # pivot column -> row, pivot scaled to 1

    @property
    def rank(self) -> int:
        return len(self._rows)

    def residual(self, vec: list[Fraction]) -> list[Fraction]:
        """Reduce ``vec`` against the stored rows; zero vector means dependent."""
        v = [Fraction(x) for x in vec]
        if len(v) != self.dim:
            raise ValueError(f"expected dimension {self.dim}, got {len(v)}")
        for piv, row in self._rows.items():
            if v[piv] != 0:
                f = v[piv]
                v = [x - f * y for x, y in zip(v, row)]
        return v

    def try_insert(self, vec: list[Fraction]) -> bool:
        v = self.residual(vec)
        piv = next((i for i, x in enumerate(v) if x != 0), None)
        if piv is None:
            return False
        inv = 1 / v[piv]
        self._rows[piv] = [x * inv for x in v]
        return True


def hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Hermite basis (row style) of the integer lattice generated by ``rows``.

    Output rows are in echelon order with positive pivots and the entries
    above each pivot reduced into [0, pivot).
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return []
    ncols = len(work[0])
    r = 0
    for c in range(ncols):
        while True:
            live = [i for i in range(r, len(work)) if work[i][c]]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: abs(work[i][c]))
            i0 = live[0]
            for i in live[1:]:
                q = work[i][c] // work[i0][c]
                work[i] = [x - q * y for x, y in zip(work[i], work[i0])]
        live = [i for i in range(r, len(work)) if work[i][c]]
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
    return [row for row in work[:r]]
