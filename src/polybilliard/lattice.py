"""Period-lattice algebra on the plane.

A pattern's 2g periods live in a 2-dimensional real plane, so any two
independent ones serve as a reference pair and every other period is a real
combination of them.  This module computes those relation coefficients
exactly, decides whether they are all rational (the doubly-rational case,
where the periods generate a genuine plane lattice with generators D1/C1 and
D2/C2), reduces arbitrary lattice vectors to integer generator coordinates,
and — for irrational relation sets — replaces coefficients by best rational
approximants under a denominator cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .approx import best_rational
from .errors import DegeneratePair, NotDoublyRational, NotInLattice, OutOfRange
from .unfold import Period

__all__ = [
    "RealRelations",
    "RationalRelations",
    "PeriodLattice",
    "default_pair",
    "real_relations",
    "detect_drpb",
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
class RealRelations:
    """Exact relation coefficients of the remaining periods over a chosen pair.

    Each non-pair basis period D_k, after subtracting an integer combination
    ``shifts[k]`` of the pair, equals ``coeffs[k][0]*d1 + coeffs[k][1]*d2``
    exactly.  A rational coefficient lies in [0, 1), any other in [0, 1] up
    to float rounding (`_reduce_unit`).  Scalars are frame-typed:
    exact field elements in exact mode, floats otherwise.
    """

    frame: object
    d1: object
    d2: object
    pair: tuple[Period, Period]
    pair_indexes: tuple[int, int]
    members: tuple[Period, ...]
    member_indexes: tuple[int, ...]
    coeffs: tuple[tuple[object, object], ...]
    shifts: tuple[tuple[int, int], ...]

    @property
    def coeffs_float(self) -> list[tuple[float, float]]:
        return [(float(a), float(b)) for a, b in self.coeffs]


@dataclass(frozen=True, eq=False)
class RationalRelations:
    """The relation table of a doubly-rational lattice, as exact fractions.

    ``fracs[k]`` is (p_k1/q_k1, p_k2/q_k2) for the k-th non-pair period;
    ``c1``/``c2`` are the least common multiples of the first/second-column
    denominators, and ``n1[k] = c1 // q_k1`` (similarly ``n2``).  When the
    verdict came from the float continued-fraction fallback rather than exact
    arithmetic, ``heuristic`` is set.
    """

    relations: RealRelations
    fracs: tuple[tuple[Fraction, Fraction], ...]
    c1: int
    c2: int
    n1: tuple[int, ...]
    n2: tuple[int, ...]
    heuristic: bool = False


@dataclass(frozen=True, eq=False)
class PeriodLattice:
    """A period basis together with its relation data over a chosen pair."""

    basis: tuple[Period, ...]
    relations: RealRelations
    rational: RationalRelations | None

    @property
    def frame(self):
        return self.relations.frame

    @property
    def d1(self):
        return self.relations.d1

    @property
    def d2(self):
        return self.relations.d2

    @property
    def genus(self) -> int:
        return len(self.basis) // 2

    @property
    def doubly_rational(self) -> bool:
        return self.rational is not None

    def _require_rational(self) -> RationalRelations:
        if self.rational is None:
            raise NotDoublyRational("period relations are not all rational")
        return self.rational

    @property
    def c1(self) -> int:
        return self._require_rational().c1

    @property
    def c2(self) -> int:
        return self._require_rational().c2

    @property
    def generators(self) -> tuple[object, object]:
        """The lattice generators D1/C1 and D2/C2 (doubly-rational only)."""
        rat = self._require_rational()
        f = self.frame
        return (
            f.scalar(Fraction(1, rat.c1)) * self.d1,
            f.scalar(Fraction(1, rat.c2)) * self.d2,
        )

    def report(self) -> str:
        """Human-readable relation table for terminal output."""
        i, j = self.relations.pair_indexes
        lines = [f"periods: {len(self.basis)} (genus {self.genus})"]
        for idx, per in enumerate(self.basis):
            role = " [D1]" if idx == i else (" [D2]" if idx == j else "")
            lines.append(_period_line(idx, per, role))
        if self.relations.coeffs:
            lines.append("relation coefficients over (D1, D2):")
            for pos, (a, b) in enumerate(self.relations.coeffs_float):
                k = self.relations.member_indexes[pos]
                if self.rational is not None:
                    fa, fb = self.rational.fracs[pos]
                    lines.append(f"  P{k + 1} = {fa} * D1 + {fb} * D2")
                else:
                    lines.append(f"  P{k + 1} = {a:.12g} * D1 + {b:.12g} * D2")
        if self.rational is not None:
            tag = " (heuristic float verdict)" if self.rational.heuristic else ""
            lines.append(f"doubly rational: yes{tag}")
            lines.append(f"C1 = {self.rational.c1}, C2 = {self.rational.c2}")
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


def _reduce_unit(frame, a):
    """Split a real scalar into (reduced, shift) with reduced = a - shift.

    When `frame.rational_value` finds a rational value, the shift is its
    floor and the reduced scalar lies in [0, 1) (up to float rounding in a
    float frame).  Otherwise the shift is the floor of the float value, and
    the reduced scalar lies in [0, 1] up to float rounding.
    """
    r = frame.rational_value(a)
    if r is not None:
        shift = math.floor(r)
        return a - frame.scalar(shift), shift
    shift = math.floor(float(a))
    return a - frame.scalar(shift), shift


def real_relations(
    frame,
    basis: list[Period] | tuple[Period, ...],
    pair_choice: tuple[int, int] | None = None,
) -> RealRelations:
    """Express every non-pair basis period over the chosen pair, exactly.

    ``pair_choice`` indexes two real-independent basis periods (defaults to
    the shortest independent pair).  Coefficients are reduced by subtracting
    integer multiples of the pair, which only moves each period by lattice
    translations: into [0, 1) for a rational coefficient, and into [0, 1] up
    to float rounding otherwise (`_reduce_unit`).
    """
    if pair_choice is None:
        pair_choice = default_pair(frame, basis)
    i, j = pair_choice
    if i == j or not (0 <= i < len(basis)) or not (0 <= j < len(basis)):
        raise ValueError(f"pair_choice {pair_choice} does not index two distinct periods")
    d1 = basis[i].vector
    d2 = basis[j].vector
    det = frame.cross(d1, d2)
    if frame.is_zero(det, scale=_norm(d1) * _norm(d2)):
        raise DegeneratePair("chosen pair is collinear")

    members: list[Period] = []
    member_indexes: list[int] = []
    coeffs: list[tuple[object, object]] = []
    shifts: list[tuple[int, int]] = []
    for k, per in enumerate(basis):
        if k == i or k == j:
            continue
        v = per.vector
        a1 = frame.cross(v, d2) / det
        a2 = frame.cross(d1, v) / det
        a1, s1 = _reduce_unit(frame, a1)
        a2, s2 = _reduce_unit(frame, a2)
        members.append(per)
        member_indexes.append(k)
        coeffs.append((a1, a2))
        shifts.append((s1, s2))
    return RealRelations(
        frame=frame,
        d1=d1,
        d2=d2,
        pair=(basis[i], basis[j]),
        pair_indexes=(i, j),
        members=tuple(members),
        member_indexes=tuple(member_indexes),
        coeffs=tuple(coeffs),
        shifts=tuple(shifts),
    )


def detect_drpb(relations: RealRelations) -> RationalRelations | None:
    """Return the rational relation table, or None if any coefficient is irrational.

    In exact mode the verdict is exact.  In float mode it relies on
    continued-fraction stabilization (denominator <= 10^6, relative residual
    < 1e-9) and the result carries ``heuristic=True``.
    """
    frame = relations.frame
    fracs: list[tuple[Fraction, Fraction]] = []
    for a1, a2 in relations.coeffs:
        r1 = frame.rational_value(a1)
        if r1 is None:
            return None
        r2 = frame.rational_value(a2)
        if r2 is None:
            return None
        fracs.append((r1, r2))
    return _rational_from_fracs(relations, fracs, heuristic=not frame.exact)


def _rational_from_fracs(
    relations: RealRelations,
    fracs: list[tuple[Fraction, Fraction]],
    heuristic: bool,
) -> RationalRelations:
    c1 = math.lcm(1, *(f1.denominator for f1, _ in fracs))
    c2 = math.lcm(1, *(f2.denominator for _, f2 in fracs))
    n1 = tuple(c1 // f1.denominator for f1, _ in fracs)
    n2 = tuple(c2 // f2.denominator for _, f2 in fracs)
    return RationalRelations(
        relations=relations,
        fracs=tuple(fracs),
        c1=c1,
        c2=c2,
        n1=n1,
        n2=n2,
        heuristic=heuristic,
    )


def reduce_period(period, rational: RationalRelations) -> tuple[int, int]:
    """Integer generator coordinates (r1, r2) with D = r1*D1/C1 + r2*D2/C2.

    Accepts a Period or a bare frame vector.  Raises NotInLattice when the
    vector is not an integer combination of the generators.
    """
    rel = rational.relations
    frame = rel.frame
    v = period.vector if isinstance(period, Period) else period
    det = frame.cross(rel.d1, rel.d2)
    x = frame.cross(v, rel.d2) / det
    y = frame.cross(rel.d1, v) / det
    out = []
    for coord, c in ((x, rational.c1), (y, rational.c2)):
        r = frame.rational_value(coord)
        if r is None:
            raise NotInLattice("period has an irrational coordinate over the pair")
        scaled = r * c
        if scaled.denominator != 1:
            raise NotInLattice(f"coordinate {r} is not a multiple of 1/{c}")
        out.append(int(scaled))
    return (out[0], out[1])


def rationalize_relations(relations, max_denominator: int):
    """Replace irrational relation coefficients by best rational approximants.

    The approximant of x under denominator cap Q is the last continued-fraction
    convergent p/q with q <= Q, which satisfies |x - p/q| <= 1/(q*Q); exactly
    rational coefficients pass through unchanged.  Accepts either a
    RealRelations table (returning a RationalRelations marked heuristic unless
    nothing needed approximating) or a single real number (returning the
    Fraction directly).
    """
    if max_denominator < 2:
        raise OutOfRange(f"denominator cap must be at least 2, got {max_denominator}")

    if isinstance(relations, RealRelations):
        frame = relations.frame
        fracs: list[tuple[Fraction, Fraction]] = []
        approximated = False
        for a1, a2 in relations.coeffs:
            row = []
            for a in (a1, a2):
                r = frame.rational_value(a)
                if r is None:
                    r = best_rational(float(a), max_denominator)
                    approximated = True
                row.append(r)
            fracs.append((row[0], row[1]))
        return _rational_from_fracs(relations, fracs, heuristic=approximated)

    if isinstance(relations, (int, Fraction)):
        return best_rational(Fraction(relations), max_denominator)
    return best_rational(float(relations), max_denominator)


def period_lattice(
    frame,
    basis: list[Period] | tuple[Period, ...],
    pair_choice: tuple[int, int] | None = None,
) -> PeriodLattice:
    """Bundle a period basis with its relation data and rationality verdict."""
    rel = real_relations(frame, basis, pair_choice)
    return PeriodLattice(basis=tuple(basis), relations=rel, rational=detect_drpb(rel))
