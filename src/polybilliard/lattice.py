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
`PeriodLattice`.  `with_pair` moves a lattice to another reference pair.
"""

from __future__ import annotations

import math
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
    "with_pair",
]


def _norm(v) -> float:
    return abs(complex(v))


def _period_line(index: int, period: Period, role: str = "") -> str:
    """The `  P<index+1>: (x, y) kind` line of a printed period list."""
    z = complex(period.vector)
    kind = f" {period.kind}" if period.kind else ""
    return f"  P{index + 1}: ({z.real:.12g}, {z.imag:.12g}){kind}{role}"


class PeriodLattice:
    """A period basis with its relation table over a reference pair.

    Its five inputs are the ``frame``, the ``basis``, the ``pair_indexes``
    (i, j) of the pair d1 = basis[i], d2 = basis[j], and the table of
    ``coeffs`` and ``shifts``: the k-th member period, less the integer
    combination ``shifts[k]`` of the pair, equals ``coeffs[k][0]*d1 +
    coeffs[k][1]*d2``, each coefficient a Fraction in [0, 1) or a float that
    `frame.rational_value` calls rational or not.  The rest is derived, so it
    cannot disagree with the basis: ``det`` = cross(d1, d2),
    ``member_indexes`` the basis indexes outside the pair, and ``fracs`` the
    coefficients' rational values, or None when one is irrational.
    (`period_lattice` and `with_pair` hand ``fracs`` over from `_table`, which
    decided each coordinate's rationality once.)

    With a table the lattice is doubly rational: ``c1``/``c2`` are the least
    common multiples of its first/second-column denominators and the
    generators are D1/C1 and D2/C2, and ``parallel_labels`` decides which
    momentum labels run parallel to a basis period.  ``heuristic`` marks a
    verdict a float frame decided.
    """

    def __init__(
        self,
        frame,
        basis: tuple[Period, ...],
        pair_indexes: tuple[int, int],
        coeffs: tuple[tuple[object, object], ...],
        shifts: tuple[tuple[int, int], ...],
    ):
        self.frame = frame
        self.basis = basis
        self.pair_indexes = pair_indexes
        self.coeffs = coeffs
        self.shifts = shifts

    @cached_property
    def det(self):
        return self.frame.cross(self.d1, self.d2)

    @cached_property
    def member_indexes(self) -> tuple[int, ...]:
        return tuple(k for k in range(len(self.basis)) if k not in self.pair_indexes)

    @cached_property
    def fracs(self) -> tuple[tuple[Fraction, Fraction], ...] | None:
        values = [self.frame.rational_value(a) for row in self.coeffs for a in row]
        if any(v is None for v in values):
            return None
        return tuple(zip(values[::2], values[1::2]))

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

    @cached_property
    def parallel_labels(self) -> tuple[tuple[int, int], ...] | None:
        """The momentum labels parallel to a basis period, decided exactly; None in a float frame.

        The momentum p of labels (m, n), with p.D1 = 2*pi*m*C1 and
        p.D2 = 2*pi*n*C2, has cross(p, z) = 2*pi*(m*a_z + n*b_z)/det^2 for a
        basis period z, where a_z = C1*(|D2|^2*cross(D1, z) - (D1.D2)*cross(D2, z))
        and b_z = C2*(|D1|^2*cross(D2, z) - (D1.D2)*cross(D1, z)) are real
        field elements.  Each z whose ratio a_z : b_z is rational (a
        `frame.quotient`) gives the coprime integers (u, v) with
        u : v = a_z : b_z, v >= 0, and (m, n) is parallel to z exactly when
        m*u + n*v == 0; a z of irrational ratio is parallel to no label.  A
        float frame has no exact ratio: its callers test directions within a
        tolerance instead.  Raises NotDoublyRational on a lattice without a
        rational table.
        """
        f = self.frame
        c1, c2 = self.c1, self.c2
        if not f.exact:
            return None
        d1, d2 = self.d1, self.d2
        g11, g12, g22 = f.dot(d1, d1), f.dot(d1, d2), f.dot(d2, d2)
        out = []
        for per in self.basis:
            x1, x2 = f.cross(d1, per.vector), f.cross(d2, per.vector)
            a = c1 * (g22 * x1 - g12 * x2)
            b = c2 * (g11 * x2 - g12 * x1)
            if f.is_zero(b):
                out.append((0 if f.is_zero(a) else 1, 0))
                continue
            r = f.rational_value(f.quotient(a, b))
            if r is not None:
                out.append((r.numerator, r.denominator))
        return tuple(out)

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
    return _shortest_pair(frame, basis)[0]


def _shortest_pair(frame, basis) -> tuple[tuple[int, int], object]:
    """`default_pair` and the pair's cross product, which decided its independence."""
    if len(basis) < 2:
        raise DegeneratePair("need at least two periods to choose a pair")

    def key(idx: int):
        z = complex(basis[idx].vector)
        return (round(abs(z), 9), z.real, z.imag)

    order = sorted(range(len(basis)), key=key)
    first = order[0]
    u = basis[first].vector
    for second in order[1:]:
        v = basis[second].vector
        det = frame.cross(u, v)
        if not frame.is_zero(det, scale=_norm(u) * _norm(v)):
            return (first, second), det
    raise DegeneratePair("all basis periods are collinear")


def _coordinates(frame, d1c, d2, det, v):
    """(x, y) with v = x*d1 + y*d2, each a `frame.quotient` over det = cross(d1, d2).

    `d1c` is d1's conjugate, taken once per pair: cross(d1, v) = Im(d1c * v).
    """
    return frame.quotient(frame.cross(v, d2), det), frame.quotient((d1c * v).imag, det)


def _check_pair(basis, pair_choice: tuple[int, int]) -> tuple[int, int]:
    i, j = pair_choice
    if i == j or not (0 <= i < len(basis)) or not (0 <= j < len(basis)):
        raise ValueError(f"pair_choice {pair_choice} does not index two distinct periods")
    return i, j


def _table(frame, basis, pair: tuple[int, int], coords) -> PeriodLattice:
    """The lattice over ``pair`` whose member periods have coordinates ``coords``.

    Each coordinate's rationality is decided once, by `frame.rational_value`.
    Its shift is the floor of its rational value when it has one, else of
    itself, and the coordinate less its shift is its coefficient: that moves
    its period by a lattice translation only.  The rational value less the
    shift is the coefficient's fraction, so the lattice's ``fracs`` come from
    the same answers.
    """
    flat = [a for xy in coords for a in xy]
    values = [frame.rational_value(a) for a in flat]
    floors = [math.floor(a if r is None else r) for a, r in zip(flat, values)]
    diffs = [a - s for a, s in zip(flat, floors)]
    shifts = tuple(zip(floors[::2], floors[1::2]))
    lattice = PeriodLattice(frame, tuple(basis), pair, tuple(zip(diffs[::2], diffs[1::2])), shifts)
    if any(r is None for r in values):
        lattice.fracs = None
    else:
        fracs = [r - s for r, s in zip(values, floors)]
        lattice.fracs = tuple(zip(fracs[::2], fracs[1::2]))
    return lattice


def period_lattice(
    frame,
    basis: list[Period] | tuple[Period, ...],
    pair_choice: tuple[int, int] | None = None,
) -> PeriodLattice:
    """Express every non-pair basis period over the chosen pair.

    ``pair_choice`` indexes two real-independent basis periods (defaults to
    the shortest independent pair).  Each coordinate is a `frame.quotient`,
    so an exact frame decides its rationality once, exactly and without
    dividing field elements, and `_table` reduces the coordinates to the
    table.  In a float frame the verdict relies on continued-fraction
    stabilization (denominator <= 10^6, relative residual < 1e-9), and the
    lattice is `heuristic`.
    """
    if pair_choice is None:
        (i, j), det = _shortest_pair(frame, basis)
        d1, d2 = basis[i].vector, basis[j].vector
    else:
        i, j = _check_pair(basis, pair_choice)
        d1, d2 = basis[i].vector, basis[j].vector
        det = frame.cross(d1, d2)
        if frame.is_zero(det, scale=_norm(d1) * _norm(d2)):
            raise DegeneratePair("chosen pair is collinear")
    d1c = d1.conjugate()
    members = (k for k in range(len(basis)) if k not in (i, j))
    coords = [_coordinates(frame, d1c, d2, det, basis[k].vector) for k in members]
    return _table(frame, basis, (i, j), coords)


def with_pair(lattice: PeriodLattice, pair_choice: tuple[int, int]) -> PeriodLattice:
    """The same doubly-rational lattice over another reference pair.

    Every basis period has exact Fraction coordinates over the old pair (its
    table entry plus its shift), and Cramer's rule over the new pair's
    coordinates gives its Fraction coordinates over the new pair, which
    `_table` reduces as it does `period_lattice`'s quotients.  Both frames
    take a Fraction as its own rational value, so no denominator is rounded
    again.  Raises NotDoublyRational on a lattice without a table.
    """
    if lattice.fracs is None:
        raise NotDoublyRational("only a rational table changes pair exactly")
    basis = lattice.basis
    i, j = _check_pair(basis, pair_choice)
    one, zero = Fraction(1), Fraction(0)
    coords = {lattice.pair_indexes[0]: (one, zero), lattice.pair_indexes[1]: (zero, one)}
    for k, (a1, a2), (s1, s2) in zip(lattice.member_indexes, lattice.fracs, lattice.shifts):
        coords[k] = (a1 + s1, a2 + s2)
    (a, b), (c, d) = coords[i], coords[j]
    cross = a * d - b * c
    if cross == 0:
        raise DegeneratePair("chosen pair is collinear")
    rows = [((x * d - y * c) / cross, (a * y - b * x) / cross)
            for k, (x, y) in sorted(coords.items()) if k not in (i, j)]
    return _table(lattice.frame, basis, (i, j), rows)


def reduce_period(period, lattice: PeriodLattice) -> tuple[int, int]:
    """Integer generator coordinates (r1, r2) with D = r1*D1/C1 + r2*D2/C2.

    Accepts a Period or a bare frame vector.  Raises NotDoublyRational on a
    lattice without a rational table and NotInLattice when the vector is not
    an integer combination of the generators.
    """
    frame = lattice.frame
    v = period.vector if isinstance(period, Period) else period
    coords = _coordinates(frame, lattice.d1.conjugate(), lattice.d2, lattice.det, v)
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
    convergent p/q with q <= Q, which satisfies |x - p/q| <= 1/(q*Q); a
    coefficient with a `frame.rational_value`, as an exact Fraction has in
    both frames, passes through unchanged.  The pair and the shifts stay, so
    the substituted Fractions are the table of a doubly-rational
    `PeriodLattice` whose member periods are (frac + shift) of the pair.
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
    return PeriodLattice(f, tuple(basis), lattice.pair_indexes, fracs, lattice.shifts)
