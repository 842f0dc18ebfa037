"""Exact planar geometry of rational-angle polygons.

A polygon here is a closed chain of sides: side k has an exact length and a
direction angle that is an integer multiple of pi/N (N = lcm of the angle
denominators).  The interior angle (p_k/q_k)*pi sits at the END vertex of
side k, and the traversal is counterclockwise, so the direction indices obey
j_{k+1} = j_k + N - p_k*(N/q_k)  (mod 2N).

Planar vectors are carried as single complex-like scalars z = x + i*y: in
the cyclotomic field Q(zeta_{4N}) while phi(4N) <= EXACT_DEGREE_LIMIT
(`ExactFrame`: decidable equality, exact closure tests), else in a Python
complex (`FloatFrame`: predicates tolerant to 1e-9 of the length scale).
Both speak Python's complex protocol, so callers read `z.real`, `float(r)`
or `z.conjugate()` directly, `_Frame` holds the shared algebra once, and a
frame keeps only what differs with the number type.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
import warnings
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

from .approx import as_rational, best_rational
from .cyclo import Cyclo, CycloField, prime_power_factors
from .errors import (
    CannotBalance,
    ClosureViolation,
    NonCoprimeAngle,
    NonpositiveLength,
    OutOfRange,
    SelfIntersection,
    SingularSystem,
    _refuse_past_memory,
)

__all__ = [
    "RationalAngle",
    "ExactFrame",
    "FloatFrame",
    "Polygon",
    "validate_polygon",
    "solve_closure",
    "rationalize_angles",
    "polygon_from_spec",
    "load_polygon",
    "EXACT_DEGREE_LIMIT",
    "DIRICHLET",
    "NEUMANN",
]

# Wall conditions a side can carry (sign prescriptions, the FD oracle, the
# CLI); defined here, away from numpy, so the CLI can name them without it.
DIRICHLET = "dirichlet"
NEUMANN = "neumann"

# Above this field degree, exact coordinates get expensive and the package
# falls back to double precision (only genus/counting claims are made there).
EXACT_DEGREE_LIMIT = 64

_FLOAT_TOL = 1e-9  # absolute tolerance on unit-scale float comparisons
# the float geometry squares coordinates, so a perimeter past this would overflow it
_MAX_PERIMETER = 1e150


def _euler_phi(m: int) -> int:
    out = 1
    for p, q in prime_power_factors(m):
        out *= q - q // p
    return out


class RationalAngle:
    """An interior angle (p/q)*pi with p, q coprime and 0 < p/q < 2.

    Angles are equal and hashed by value.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        if q < 1:
            raise OutOfRange(f"angle denominator must be >= 1, got {q}")
        g = gcd(p, q)
        if g > 1:
            warnings.warn(
                f"angle {p}/{q} is not in lowest terms; reducing",
                NonCoprimeAngle,
                stacklevel=2,
            )
            p, q = p // g, q // g
        if not 0 < p < 2 * q:
            raise OutOfRange(f"interior angle must be in (0, 2pi): got {p}/{q} pi")
        self.p = p
        self.q = q

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.q) == (other.p, other.q)

    def __hash__(self) -> int:
        return hash((self.p, self.q))

    def __repr__(self) -> str:
        return f"RationalAngle(p={self.p}, q={self.q})"

    @classmethod
    def make(cls, value) -> "RationalAngle":
        """Coerce "p/q" strings, Fractions, (p, q) pairs, or ints; a bool is no angle."""
        if isinstance(value, RationalAngle):
            return value
        if isinstance(value, str):
            value = Fraction(value)
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            return cls(value.numerator, value.denominator)
        if isinstance(value, tuple) and len(value) == 2:
            return cls(int(value[0]), int(value[1]))
        raise TypeError(f"cannot interpret {value!r} as a rational angle")

    @property
    def frac(self) -> Fraction:
        return Fraction(self.p, self.q)

    def radians(self) -> float:
        return math.pi * self.p / self.q

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


class _Frame:
    """The vector algebra of both frames, written once over Python's complex protocol.

    A subclass sets `N` and `_i` (the vector i) and adds `unit`, `scalar`,
    `zero`, `rotate`, `mirror`, `is_zero`, the index keys `index_key` and
    `probe_keys`, `quotient`, `rational_value`, `_length` and `positive`.
    """

    def from_xy(self, x, y):
        return self.scalar(x) + self._i * self.scalar(y)

    def cross(self, u, v):
        return (u.conjugate() * v).imag

    def dot(self, u, v):
        return (u.conjugate() * v).real

    def to_complex(self, z) -> complex:
        return complex(z)

    def length(self, value):
        """`value` as a side length of this frame; a bool or None is a TypeError."""
        if isinstance(value, bool) or value is None:
            raise TypeError(f"invalid side length {value!r}")
        return self._length(value)


class ExactFrame(_Frame):
    """Vector arithmetic in Q(zeta_{4N}); all predicates are exact."""

    exact = True

    def __init__(self, n_lcm: int):
        self.N = n_lcm
        self.field = CycloField(4 * n_lcm)
        self._i = self.field.i()

    def unit(self, j: int):
        """The unit vector e^{i pi j / N}."""
        return self.field.zeta(2 * j)

    def scalar(self, r):
        if isinstance(r, Cyclo):
            if r.field is not self.field:
                raise ValueError("scalar from a different field")
            return r
        return self.field.rational(r)

    def zero(self):
        return self.field.zero()

    def rotate(self, z, j: int):
        """Rotate by j*pi/N."""
        return z._mapped(1, 2 * j)

    def mirror(self, zc, p, j: int):
        """z reflected in the line through p of direction j*pi/(2N), given zc = conj(z)."""
        return zc._mapped(1, 2 * j) + (p - p.conjugate()._mapped(1, 2 * j))

    def is_zero(self, z, scale: float = 1.0) -> bool:
        return z.is_zero()

    def index_key(self, z, scale: float = 1.0):
        """Key of z in a hash index of vectors: z itself, which is normalized."""
        return z

    def probe_keys(self, z, scale: float = 1.0):
        """The keys of every vector w with `is_zero(z - w)`: z's own."""
        return (z,)

    def quotient(self, num, den) -> Fraction | float:
        """num / den for real scalars, den nonzero, decided without inverting den.

        The exact Fraction r when num == r*den, read from one coefficient of
        den and checked exactly; otherwise the quotient is irrational, and
        this returns its float.
        """
        key, d = next(iter(den.num.items()))
        r = Fraction(num.num.get(key, 0) * den.den, num.den * d)
        if num == den * r:
            return r
        return float(num) / float(den)

    def rational_value(self, r) -> Fraction | None:
        """Fraction value of a real scalar or a `quotient` if it is rational, else None."""
        if not isinstance(r, Cyclo):
            return r if isinstance(r, Fraction) else None
        return r.as_fraction() if r.is_rational() else None

    def _length(self, value):
        """A real field scalar as given, a rational as an exact Fraction; a float is refused."""
        if isinstance(value, Cyclo):
            return value
        if isinstance(value, float):
            raise TypeError(
                "float lengths are not allowed in exact mode; pass a Fraction "
                "(or a string like '3/2' in the polygon file)"
            )
        return value if isinstance(value, Fraction) else Fraction(value)

    def positive(self, r) -> bool:
        """A Fraction's sign exactly; a field scalar's once it is exactly nonzero."""
        if isinstance(r, Cyclo):
            return not r.is_zero() and float(r) > 0
        return r > 0


class FloatFrame(_Frame):
    """Double-precision twin of ExactFrame: same surface, tolerant predicates."""

    exact = False
    _i = 1j

    def __init__(self, n_lcm: int):
        self.N = n_lcm
        _refuse_past_memory(2 * n_lcm, sys.getsizeof(0j) + 8,
                            f"the {2 * n_lcm} unit vectors of a float frame are more")
        step = 1j * math.pi
        self._turn = 2 * n_lcm  # direction indices in a full turn
        self._units = [cmath.exp(step * j / n_lcm) for j in range(self._turn)]

    def unit(self, j: int) -> complex:
        return self._units[j % self._turn]

    def scalar(self, r) -> float:
        return float(r)

    def zero(self) -> complex:
        return 0j

    def rotate(self, z: complex, j: int) -> complex:
        return z * self._units[j % self._turn]

    def mirror(self, zc: complex, p: complex, j: int) -> complex:
        w = self._units[j % self._turn]
        return zc * w + (p - p.conjugate() * w)

    def is_zero(self, z, scale: float = 1.0) -> bool:
        return abs(z) <= _FLOAT_TOL * max(1.0, scale)

    def index_key(self, z: complex, scale: float = 1.0) -> tuple[int, int]:
        """Key of z in a hash index of vectors: its grid cell.

        The cells have side twice the `is_zero` radius, so that rounding at
        a cell border cannot put two vectors within the radius two cells
        apart.
        """
        side = 2 * _FLOAT_TOL * max(1.0, scale)
        return math.floor(z.real / side), math.floor(z.imag / side)

    def probe_keys(self, z: complex, scale: float = 1.0) -> list[tuple[int, int]]:
        """The keys of every vector w with `is_zero(z - w)`: z's cell and its 8 neighbours."""
        x, y = self.index_key(z, scale)
        return [(x + i, y + j) for i in (-1, 0, 1) for j in (-1, 0, 1)]

    def quotient(self, num: float, den: float) -> float:
        """num / den; `rational_value` then decides its rationality heuristically."""
        return num / den

    def rational_value(self, r: float | Fraction) -> Fraction | None:
        """An exact Fraction as it is, as in `ExactFrame`; a float by `as_rational`.

        A Fraction is already known rational, as in a table `with_pair` or
        `rationalize_relations` builds; rounding it through a float would
        refuse its denominator above 10^6.
        """
        if isinstance(r, float):
            return as_rational(r)
        return r if isinstance(r, Fraction) else as_rational(float(r))

    def _length(self, value) -> float:
        return float(value)

    def positive(self, r: float) -> bool:
        return r > 1e-12


def make_frame(angles: list[RationalAngle]):
    n_lcm = lcm(*(a.q for a in angles))
    if _euler_phi(4 * n_lcm) <= EXACT_DEGREE_LIMIT:
        return ExactFrame(n_lcm)
    return FloatFrame(n_lcm)


class Polygon:
    """A validated closed polygon with exact angles and side chain."""

    __slots__ = ("angles", "lengths", "frame", "dirs", "verts", "name")

    def __init__(
        self,
        angles: tuple[RationalAngle, ...],  # angle k sits at the END vertex of side k
        lengths: tuple,  # Fraction, or real field scalars in exact mode, or floats
        frame: ExactFrame | FloatFrame,
        dirs: tuple[int, ...],  # direction index j of each side: angle = j*pi/N
        verts: tuple,  # vertex k = start of side k, as frame vectors
        name: str | None = None,
    ):
        self.angles = angles
        self.lengths = lengths
        self.frame = frame
        self.dirs = dirs
        self.verts = verts
        self.name = name

    @property
    def n(self) -> int:
        return len(self.angles)

    @property
    def N(self) -> int:
        return self.frame.N

    def vertices_float(self) -> list[complex]:
        return [complex(v) for v in self.verts]

    def perimeter_float(self) -> float:
        return sum(float(v) for v in self.lengths)

    def __repr__(self) -> str:
        nm = f" {self.name!r}" if self.name else ""
        return f"<Polygon{nm} n={self.n} N={self.N} exact={self.frame.exact}>"


def _direction_indices(angles: list[RationalAngle], n_lcm: int) -> list[int]:
    js, j = [], 0
    for a in angles:
        js.append(j % (2 * n_lcm))
        j += n_lcm - a.p * (n_lcm // a.q)
    return js


def _pt_seg(p: complex, u: complex, v: complex) -> float:
    """Euclidean distance from point p to segment uv."""
    w = v - u
    den = (w.real**2 + w.imag**2) or 1.0
    t = ((p - u).real * w.real + (p - u).imag * w.imag) / den
    t = min(1.0, max(0.0, t))
    return abs(p - (u + t * w))


def _orient(p: complex, q: complex, r: complex) -> float:
    return (q - p).real * (r - p).imag - (q - p).imag * (r - p).real


def _seg_distance(a: complex, b: complex, c: complex, d: complex) -> float:
    """Euclidean distance between segments ab and cd."""
    # proper crossing?
    o1, o2 = _orient(a, b, c), _orient(a, b, d)
    o3, o4 = _orient(c, d, a), _orient(c, d, b)
    if (o1 > 0) != (o2 > 0) and (o3 > 0) != (o4 > 0) and o1 != o2 and o3 != o4:
        return 0.0
    return min(_pt_seg(a, c, d), _pt_seg(b, c, d), _pt_seg(c, a, b), _pt_seg(d, a, b))


def _check_simple(verts: list[complex], scale: float) -> None:
    """Raise SelfIntersection at the first pair of non-adjacent sides closer than tol.

    A pair whose bounding boxes lie more than 2*tol apart cannot be that
    close, so its distance is not computed: each box is grown by tol, and
    such a pair's grown boxes are disjoint.
    """
    n = len(verts)
    tol = _FLOAT_TOL * max(1.0, scale)
    ends = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
    boxes = [(min(a.real, b.real) - tol, max(a.real, b.real) + tol,
              min(a.imag, b.imag) - tol, max(a.imag, b.imag) + tol) for a, b in ends]
    for i in range(n):
        a, b = ends[i]
        x0, x1, y0, y1 = boxes[i]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue  # identical or adjacent sides share a vertex by design
            u0, u1, v0, v1 = boxes[j]
            if u0 > x1 or x0 > u1 or v0 > y1 or y0 > v1:
                continue
            c, d = ends[j]
            if _seg_distance(a, b, c, d) < tol:
                raise SelfIntersection(f"sides {i} and {j} touch or cross")


def _side_chain(angles, lengths):
    """The angles, frame, direction indices and frame lengths of a side chain.

    Checks the side count and the angle sum, and solves the two None
    lengths, if `lengths` leaves two unknown, so that the chain closes:
    exact field scalars in an exact frame, floats in a float frame.
    """
    ra = [RationalAngle.make(a) for a in angles]
    n = len(ra)
    if n < 3:
        raise OutOfRange(f"a polygon needs at least 3 sides, got {n}")
    if len(lengths) != n:
        raise OutOfRange(f"{n} angles but {len(lengths)} lengths")
    unknown = [k for k, v in enumerate(lengths) if v is None]
    if len(unknown) not in (0, 2):
        raise ValueError(f"exactly 0 or 2 lengths may be omitted, found {len(unknown)}")
    n_lcm = lcm(*(a.q for a in ra))
    total = sum(a.p * (n_lcm // a.q) for a in ra)  # the angle sum in units of pi/n_lcm
    if total != (n - 2) * n_lcm:
        raise ClosureViolation(
            f"interior angles sum to {Fraction(total, n_lcm)} pi, expected {n - 2} pi"
        )
    frame = make_frame(ra)
    dirs = _direction_indices(ra, frame.N)
    ls = [None if v is None else frame.length(v) for v in lengths]
    for k, v in enumerate(ls):
        if v is not None and not frame.positive(v):
            raise NonpositiveLength(f"side {k} has nonpositive length")
    if unknown:
        i1, i2 = unknown
        known = (frame.unit(d) * v for d, v in zip(dirs, ls) if v is not None)
        rhs = sum(known, frame.zero())
        u1, u2 = frame.unit(dirs[i1]), frame.unit(dirs[i2])
        det = frame.cross(u1, u2)
        if frame.is_zero(det):
            raise SingularSystem(
                f"unknown sides {i1} and {i2} are parallel; closure cannot fix them"
            )
        # [re u1  re u2] [t1]   [re rhs]          t1 = -cross(rhs, u2)/det
        # [im u1  im u2] [t2] = -[im rhs]   =>    t2 = -cross(u1, rhs)/det
        ls[i1] = frame.cross(rhs, u2) / det * -1
        ls[i2] = frame.cross(u1, rhs) / det * -1
        for k in unknown:
            if not frame.positive(ls[k]):
                raise NonpositiveLength(f"solved length for side {k} is not positive")
    return ra, frame, dirs, ls


def validate_polygon(angles, lengths, name: str | None = None) -> Polygon:
    """Build a Polygon, checking the exact closure of the side chain.

    `angles` may contain RationalAngle, Fraction, "p/q" strings, or (p, q)
    pairs; `lengths` exact rationals or real field scalars.  Exactly 0 or 2
    lengths may be None: the closure equations then fix the two, on the
    frame the polygon is built on (`solve_closure`).  Raises
    ClosureViolation if the chain does not return to its start,
    SelfIntersection if the boundary touches itself, OutOfRange if the
    perimeter is past `_MAX_PERIMETER` or a length past the float range.
    """
    try:
        ra, frame, dirs, ls = _side_chain(angles, lengths)
        scale = sum(float(v) for v in ls)
    except OverflowError:  # a length's float, in `frame.positive` or here
        scale = math.inf
    if not scale <= _MAX_PERIMETER:
        raise OutOfRange(f"the perimeter is past {_MAX_PERIMETER:.0e}, beyond the float geometry")
    verts = list(accumulate((frame.unit(d) * v for d, v in zip(dirs, ls)), initial=frame.zero()))
    if not frame.is_zero(verts[-1], scale=scale):
        raise ClosureViolation(
            f"side chain misses its start by {abs(complex(verts[-1])):.3g}"
        )
    poly = Polygon(angles=tuple(ra), lengths=tuple(ls), frame=frame, dirs=tuple(dirs),
                   verts=tuple(verts[:-1]), name=name)
    _check_simple(poly.vertices_float(), scale)
    return poly


def solve_closure(angles, fixed_lengths) -> list:
    """Complete a side-length assignment so the chain closes exactly.

    `fixed_lengths` has exactly two None entries (the unknowns); all others
    are the fixed positive lengths.  Returns the full length list; the two
    solved entries are exact field scalars in exact mode (they need not be
    rational), floats otherwise.
    """
    unknown = sum(1 for v in fixed_lengths if v is None)
    if unknown != 2:
        raise OutOfRange(f"exactly 2 lengths must be left unknown, got {unknown}")
    ls = _side_chain(angles, fixed_lengths)[3]
    return [s if v is None else v for v, s in zip(fixed_lengths, ls)]


def _nearest_coprime_numerator(target: float, q: int) -> int:
    """Integer p nearest `target` with gcd(p, q) == 1 and 0 < p < 2q."""
    base = round(target)
    candidates = sorted(
        range(base - 100, base + 101), key=lambda k: (abs(target - k), k)
    )
    for p in candidates:
        if 0 < p < 2 * q and gcd(p, q) == 1:
            return p
    raise CannotBalance(f"no admissible numerator near {target} for denominator {q}")


def rationalize_angles(
    irrational_angles,
    max_denominator: int,
    fixed_denominator: int | None = None,
) -> list[RationalAngle]:
    """Approximate each angle (radians) by (p/q)*pi with q <= max_denominator.

    Each angle/pi is replaced by its best rational approximation (last
    continued-fraction convergent with denominator <= Q); the angle of the
    largest denominator is then adjusted by the residual so the sum is
    exactly (n-2)*pi.

    With `fixed_denominator=Q`, every genuinely irrational angle is instead
    replaced by the nearest p/Q whose numerator is coprime to Q, so each
    such angle contributes the full Q to lcm(q_k) -- the usual reason to
    pin a denominator is to dictate that lcm.  Angles that are already
    rational pass through unchanged.
    """
    if max_denominator < 2:
        raise OutOfRange(f"max_denominator must be >= 2, got {max_denominator}")
    xs = []
    for a in irrational_angles:
        x = float(a)
        if not 0 < x < 2 * math.pi:
            raise OutOfRange(f"angle {x} out of (0, 2pi)")
        xs.append(x / math.pi)
    n = len(xs)
    if n < 3:
        raise OutOfRange("need at least 3 angles")
    if fixed_denominator is not None:
        q = fixed_denominator
        rs = []
        for x in xs:
            exact = as_rational(x, max_den=q)
            if exact is not None:
                rs.append(exact)
            else:
                rs.append(Fraction(_nearest_coprime_numerator(x * q, q), q))
    else:
        rs = [best_rational(x, max_denominator) for x in xs]
    residual = Fraction(n - 2) - sum(rs)
    if residual != 0:
        j = max(range(n), key=lambda k: rs[k].denominator)
        rs[j] += residual
        if rs[j].denominator > max_denominator and fixed_denominator is None:
            raise CannotBalance(
                f"balancing pushes angle {j} to denominator {rs[j].denominator} > {max_denominator}"
            )
    for k, r in enumerate(rs):
        if not 0 < r < 2:
            raise CannotBalance(f"angle {k} rationalizes to {r} pi, outside (0, 2pi)")
    return [RationalAngle(r.numerator, r.denominator) for r in rs]


def polygon_from_spec(data: dict) -> Polygon:
    """Build a polygon from the side-record form documented in the README.

    `data` is {"name"?: str, "sides": [{"angle": "p/q", "length": "num/den"}]};
    the angle of a record sits at the end vertex of its side, and exactly 0
    or 2 records may omit the length (the closure equations then fix them).
    """
    if not isinstance(data, dict) or "sides" not in data:
        raise ValueError("polygon spec must be an object with a 'sides' list")
    sides = data["sides"]
    if not isinstance(sides, list) or len(sides) < 3:
        raise ValueError("'sides' must list at least 3 records")
    angles, lengths = [], []
    for i, rec in enumerate(sides):
        if not isinstance(rec, dict) or "angle" not in rec:
            raise ValueError(f"side {i}: each record needs an 'angle'")
        try:
            angles.append(RationalAngle.make(rec["angle"]))
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise ValueError(f"side {i}: bad angle {rec['angle']!r}: {exc}") from exc
        raw = rec.get("length")
        if raw is None:
            lengths.append(None)
        else:
            try:
                lengths.append(Fraction(str(raw)))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"side {i}: bad length {raw!r}: {exc}") from exc
    return validate_polygon(angles, lengths, name=data.get("name"))


def load_polygon(path) -> Polygon:
    """Read a polygon spec file (JSON) from `path`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    return polygon_from_spec(data)
