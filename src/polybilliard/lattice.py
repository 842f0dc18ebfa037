"""Period-lattice algebra on the plane.

A pattern's 2g periods live in a 2-dimensional real plane, so any two
independent ones serve as a reference pair and every other period is a real
combination of them.  `period_lattice` computes those relation coefficients
as `frame.quotient`s (exact in exact frames, without dividing field
elements) and decides whether they are all rational: the doubly-rational
case, where the periods generate a genuine plane lattice with generators
D1/C1 and D2/C2.  `reduce_period` reduces a lattice vector to integer
generator coordinates.  `rationalize_relations` replaces irrational
coefficients by best rational approximants under a denominator cap and
returns the substituted billiard, itself an ordinary doubly-rational
`PeriodLattice`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .approx import best_rational
from .errors import DegeneratePair, NotDoublyRational, NotInLattice, OutOfRange
from .unfold import Period

__all__ = [
    "PeriodLattice",
    "default_pair",
    "reduce_period",
    "rationalize_relations",
    "period_lattice",
]


def _norm(v) -> float:
    return abs(complex(v))


def _independent(frame, u, v) -> bool:
    return not frame.is_zero(frame.cross(u, v), scale=_norm(u) * _norm(v))


def _period_line(index: int, period: Period, role: str = "") -> str:
    """The `  P<index+1>: (x, y) kind` line of a printed period list."""
    z = complex(period.vector)
    kind = f" {period.kind}" if period.kind else ""
    return f"  P{index + 1}: ({z.real:.12g}, {z.imag:.12g}){kind}{role}"


@dataclass(frozen=True, eq=False)
class PeriodLattice:
    """A period basis with its relation table over a reference pair.

    The pair is d1 = basis[i] and d2 = basis[j] for ``pair_indexes`` (i, j),
    with ``det`` = cross(d1, d2) nonzero.  The k-th member period
    basis[member_indexes[k]], less the integer combination ``shifts[k]`` of
    the pair, equals ``coeffs[k][0]*d1 + coeffs[k][1]*d2``.  In an exact
    frame a rational coefficient is an exact Fraction in [0, 1) and an
    irrational one its float; in a float frame every coefficient is a float,
    which `frame.rational_value` calls rational or not.

    ``fracs`` is the table as Fractions, or None when a coefficient is
    irrational.  With a table the lattice is doubly rational: ``c1``/``c2``
    are the least common multiples of its first/second-column denominators
    and the generators are D1/C1 and D2/C2.  ``heuristic`` marks a verdict a
    float frame decided.  The substituted billiard `rationalize_relations`
    builds is such a lattice, its coefficients the Fractions themselves.
    """

    frame: object
    basis: tuple[Period, ...]
    pair_indexes: tuple[int, int]
    det: object
    member_indexes: tuple[int, ...]
    coeffs: tuple[tuple[object, object], ...]
    shifts: tuple[tuple[int, int], ...]
    fracs: tuple[tuple[Fraction, Fraction], ...] | None

    @property
    def d1(self):
        return self.basis[self.pair_indexes[0]].vector

    @property
    def d2(self):
        return self.basis[self.pair_indexes[1]].vector

    @property
    def genus(self) -> int:
        return len(self.basis) // 2

    @property
    def doubly_rational(self) -> bool:
        return self.fracs is not None

    @property
    def heuristic(self) -> bool:
        return not self.frame.exact

    def _column_lcm(self, col: int) -> int:
        if self.fracs is None:
            raise NotDoublyRational("period relations are not all rational")
        return math.lcm(1, *(row[col].denominator for row in self.fracs))

    @cached_property
    def c1(self) -> int:
        return self._column_lcm(0)

    @cached_property
    def c2(self) -> int:
        return self._column_lcm(1)

    @property
    def generators(self) -> tuple[object, object]:
        """The lattice generators D1/C1 and D2/C2 (doubly-rational only)."""
        f = self.frame
        return (
            f.scalar(Fraction(1, self.c1)) * self.d1,
            f.scalar(Fraction(1, self.c2)) * self.d2,
        )

    def report(self) -> str:
        """Human-readable relation table for terminal output."""
        i, j = self.pair_indexes
        lines = [f"periods: {len(self.basis)} (genus {self.genus})"]
        for idx, per in enumerate(self.basis):
            role = " [D1]" if idx == i else (" [D2]" if idx == j else "")
            lines.append(_period_line(idx, per, role))
        if self.coeffs:
            lines.append("relation coefficients over (D1, D2):")
            for k, (a, b) in zip(self.member_indexes, self.fracs or self.coeffs):
                if self.fracs is None:
                    a, b = f"{float(a):.12g}", f"{float(b):.12g}"
                lines.append(f"  P{k + 1} = {a} * D1 + {b} * D2")
        if self.fracs is not None:
            tag = " (heuristic float verdict)" if self.heuristic else ""
            lines.append(f"doubly rational: yes{tag}")
            lines.append(f"C1 = {self.c1}, C2 = {self.c2}")
        else:
            lines.append("doubly rational: no")
        return "\n".join(lines)


def default_pair(frame, basis: list[Period] | tuple[Period, ...]) -> tuple[int, int]:
    """Pick the reference pair: the two shortest mutually independent periods.

    Norm ties break lexicographically on float coordinates, so the choice is
    deterministic for a given basis ordering and stable under relabelling of
    equal-length periods.
    """
    if len(basis) < 2:
        raise DegeneratePair("need at least two periods to choose a pair")

    def key(idx: int):
        z = complex(basis[idx].vector)
        return (round(abs(z), 9), z.real, z.imag)

    order = sorted(range(len(basis)), key=key)
    first = order[0]
    for second in order[1:]:
        if _independent(frame, basis[first].vector, basis[second].vector):
            return (first, second)
    raise DegeneratePair("all basis periods are collinear")


def _coordinates(frame, d1, d2, det, v):
    """(x, y) with v = x*d1 + y*d2, each a `frame.quotient` over det = cross(d1, d2)."""
    return frame.quotient(frame.cross(v, d2), det), frame.quotient(frame.cross(d1, v), det)


def _floor(frame, a) -> int:
    """The floor of a coefficient's rational value when it has one, else its own."""
    r = frame.rational_value(a)
    return math.floor(a if r is None else r)


def period_lattice(
    frame,
    basis: list[Period] | tuple[Period, ...],
    pair_choice: tuple[int, int] | None = None,
) -> PeriodLattice:
    """Express every non-pair basis period over the chosen pair.

    ``pair_choice`` indexes two real-independent basis periods (defaults to
    the shortest independent pair).  Each coefficient is a `frame.quotient`,
    so an exact frame decides its rationality once, exactly and without
    dividing field elements.  Coefficients are reduced by subtracting
    integer multiples of the pair, which only moves each period by lattice
    translations: the shift is the floor of the coefficient's rational
    value when it has one, else of the coefficient.  In a float frame the
    verdict relies on continued-fraction stabilization (denominator <= 10^6,
    relative residual < 1e-9), and the lattice is `heuristic`.
    """
    if pair_choice is None:
        pair_choice = default_pair(frame, basis)
    i, j = pair_choice
    if i == j or not (0 <= i < len(basis)) or not (0 <= j < len(basis)):
        raise ValueError(f"pair_choice {pair_choice} does not index two distinct periods")
    d1, d2 = basis[i].vector, basis[j].vector
    det = frame.cross(d1, d2)
    if frame.is_zero(det, scale=_norm(d1) * _norm(d2)):
        raise DegeneratePair("chosen pair is collinear")

    member_indexes = tuple(k for k in range(len(basis)) if k not in (i, j))
    coords = [_coordinates(frame, d1, d2, det, basis[k].vector) for k in member_indexes]
    shifts = tuple((_floor(frame, x), _floor(frame, y)) for x, y in coords)
    coeffs = tuple((x - s1, y - s2) for (x, y), (s1, s2) in zip(coords, shifts))
    values = [frame.rational_value(a) for row in coeffs for a in row]
    return PeriodLattice(
        frame=frame,
        basis=tuple(basis),
        pair_indexes=(i, j),
        det=det,
        member_indexes=member_indexes,
        coeffs=coeffs,
        shifts=shifts,
        fracs=None if None in values else tuple(zip(values[::2], values[1::2])),
    )


def reduce_period(period, lattice: PeriodLattice) -> tuple[int, int]:
    """Integer generator coordinates (r1, r2) with D = r1*D1/C1 + r2*D2/C2.

    Accepts a Period or a bare frame vector.  Raises NotDoublyRational on a
    lattice without a rational table and NotInLattice when the vector is not
    an integer combination of the generators.
    """
    frame = lattice.frame
    v = period.vector if isinstance(period, Period) else period
    coords = _coordinates(frame, lattice.d1, lattice.d2, lattice.det, v)
    out = []
    for r, c in zip(map(frame.rational_value, coords), (lattice.c1, lattice.c2)):
        if r is None:
            raise NotInLattice("period has an irrational coordinate over the pair")
        scaled = r * c
        if scaled.denominator != 1:
            raise NotInLattice(f"coordinate {r} is not a multiple of 1/{c}")
        out.append(int(scaled))
    return (out[0], out[1])


def rationalize_relations(lattice: PeriodLattice, max_denominator: int) -> PeriodLattice:
    """The substituted billiard: irrational relation coefficients replaced by
    best rational approximants under a denominator cap.

    The approximant of x under denominator cap Q is the last continued-fraction
    convergent p/q with q <= Q, which satisfies |x - p/q| <= 1/(q*Q); exactly
    rational coefficients pass through unchanged.  The pair stays, and each
    member period becomes (frac + shift) of each pair period, so the result is
    a doubly-rational `PeriodLattice` whose table is these fractions.  It is
    built from that table directly: a float frame, re-deriving it, would
    refuse denominators above 10^6.
    """
    if max_denominator < 2:
        raise OutOfRange(f"denominator cap must be at least 2, got {max_denominator}")
    f = lattice.frame
    flat = []
    for a in (a for row in lattice.coeffs for a in row):
        r = f.rational_value(a)
        flat.append(best_rational(float(a), max_denominator) if r is None else r)
    fracs = tuple(zip(flat[::2], flat[1::2]))
    basis = list(lattice.basis)
    for k, (a1, a2), (s1, s2) in zip(lattice.member_indexes, fracs, lattice.shifts):
        basis[k] = Period(f.scalar(a1 + s1) * lattice.d1 + f.scalar(a2 + s2) * lattice.d2)
    return dataclasses.replace(lattice, basis=tuple(basis), coeffs=fracs, fracs=fracs)
