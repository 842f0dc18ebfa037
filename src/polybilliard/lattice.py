"""Period-lattice algebra on the plane.

A pattern's 2g periods live in a 2-dimensional real plane, so any two
independent ones serve as a reference pair and every other period is a real
combination of them.  This module computes those relation coefficients as
`frame.quotient`s (exact in exact frames, without dividing field elements),
decides whether they are all rational (the doubly-rational case, where the
periods generate a genuine plane lattice with generators D1/C1 and D2/C2),
reduces arbitrary lattice vectors to integer generator coordinates,
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
    """Relation coefficients of the remaining periods over a chosen pair.

    Each non-pair basis period D_k, after subtracting an integer combination
    ``shifts[k]`` of the pair, equals ``coeffs[k][0]*d1 + coeffs[k][1]*d2``.
    In an exact frame a rational coefficient is an exact Fraction in [0, 1);
    an irrational one is its float.  In a float frame every coefficient is a
    float, which `frame.rational_value` calls rational or not.  ``det`` is
    cross(d1, d2), nonzero.
    """

    frame: object
    d1: object
    d2: object
    det: object
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


def _coordinates(frame, d1, d2, det, v):
    """(x, y) with v = x*d1 + y*d2, each a `frame.quotient` over det = cross(d1, d2)."""
    return frame.quotient(frame.cross(v, d2), det), frame.quotient(frame.cross(d1, v), det)


def _floor(frame, a) -> int:
    """The floor of a coefficient's rational value when it has one, else its own."""
    r = frame.rational_value(a)
    return math.floor(a if r is None else r)


def real_relations(
    frame,
    basis: list[Period] | tuple[Period, ...],
    pair_choice: tuple[int, int] | None = None,
) -> RealRelations:
    """Express every non-pair basis period over the chosen pair.

    ``pair_choice`` indexes two real-independent basis periods (defaults to
    the shortest independent pair).  Each coefficient is a `frame.quotient`,
    so an exact frame decides its rationality once, exactly and without
    dividing field elements.  Coefficients are reduced by subtracting
    integer multiples of the pair, which only moves each period by lattice
    translations: the shift is the floor of the coefficient's rational
    value when it has one, else of the coefficient.
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
    return RealRelations(
        frame=frame,
        d1=d1,
        d2=d2,
        det=det,
        pair_indexes=(i, j),
        members=tuple(basis[k] for k in member_indexes),
        member_indexes=member_indexes,
        coeffs=tuple((x - s1, y - s2) for (x, y), (s1, s2) in zip(coords, shifts)),
        shifts=shifts,
    )


def _rational_table(relations: RealRelations, max_denominator: int | None = None):
    """The relation table as Fractions, reading each coefficient's verdict.

    An irrational coefficient is replaced by its best rational approximant
    under ``max_denominator``; without a cap it leaves no table (None).  The
    table is heuristic when a float frame decided it or a coefficient was
    approximated.
    """
    frame = relations.frame
    flat: list[Fraction] = []
    approximated = False
    for a in (a for row in relations.coeffs for a in row):
        r = frame.rational_value(a)
        if r is None:
            if max_denominator is None:
                return None
            r, approximated = best_rational(float(a), max_denominator), True
        flat.append(r)
    fracs = tuple(zip(flat[::2], flat[1::2]))
    c1 = math.lcm(1, *(f1.denominator for f1, _ in fracs))
    c2 = math.lcm(1, *(f2.denominator for _, f2 in fracs))
    return RationalRelations(
        relations=relations,
        fracs=fracs,
        c1=c1,
        c2=c2,
        n1=tuple(c1 // f1.denominator for f1, _ in fracs),
        n2=tuple(c2 // f2.denominator for _, f2 in fracs),
        heuristic=approximated or not frame.exact,
    )


def detect_drpb(relations: RealRelations) -> RationalRelations | None:
    """Return the rational relation table, or None if any coefficient is irrational.

    This is `rationalize_relations` with no approximation allowed.  In an
    exact frame the verdict is the exact one `real_relations` reached.  In a
    float frame it relies on continued-fraction stabilization (denominator
    <= 10^6, relative residual < 1e-9) and the result carries
    ``heuristic=True``.
    """
    return _rational_table(relations)


def reduce_period(period, rational: RationalRelations) -> tuple[int, int]:
    """Integer generator coordinates (r1, r2) with D = r1*D1/C1 + r2*D2/C2.

    Accepts a Period or a bare frame vector.  Raises NotInLattice when the
    vector is not an integer combination of the generators.
    """
    rel = rational.relations
    frame = rel.frame
    v = period.vector if isinstance(period, Period) else period
    coords = _coordinates(frame, rel.d1, rel.d2, rel.det, v)
    out = []
    for r, c in zip(map(frame.rational_value, coords), (rational.c1, rational.c2)):
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
    RealRelations table (returning a RationalRelations, marked heuristic when
    a coefficient was approximated or a float frame decided the table) or a
    single real number (returning the Fraction directly).
    """
    if max_denominator < 2:
        raise OutOfRange(f"denominator cap must be at least 2, got {max_denominator}")

    if isinstance(relations, RealRelations):
        return _rational_table(relations, max_denominator)

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
