"""Momentum and energy quantization on a doubly-rational period lattice.

Periodicity of a plane wave across the whole unfolded pattern forces its
momentum to satisfy p.D in 2*pi*Z for every period D, which reduces to two
integer labels (m, n) over the lattice generators D1/C1 and D2/C2.  This
module builds those quantized momenta (aperiodic skeletons, periodic
skeletons parallel to a period, and the transverse-quantized "quantum"
momenta of all-channel skeletons), assembles energy spectra with degeneracy
counts, and reports per-period wavelength bookkeeping.

Units: hbar = 1 and mass = 1, so E = |p|^2 / 2 throughout.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from functools import cached_property

from .errors import (
    ConstraintViolation,
    NotDoublyRational,
    NotPeriodicSkeleton,
    OutOfRange,
)
from .lattice import PeriodLattice, reduce_period, with_pair
from .unfold import Period

__all__ = [
    "QuantizedMomentum",
    "PeriodicSkeletonData",
    "SpectrumEntry",
    "WavelengthEntry",
    "momentum_aperiodic",
    "periodic_skeleton_check",
    "momentum_periodic",
    "quantum_momentum",
    "spectrum",
    "wavelength_report",
    "spectrum_csv",
]

_REL_TOL = 1e-9

CLASSICAL_APERIODIC = "classical-aperiodic"
CLASSICAL_PERIODIC = "classical-periodic"
QUANTUM = "quantum"


class QuantizedMomentum:
    """A momentum allowed by the lattice periodicity, as a plane vector.

    For classical kinds the labels fix the projections exactly:
    p.D1 = 2*pi*m*C1 and p.D2 = 2*pi*n*C2.  For the quantum kind the vector
    combines the along-skeleton momentum with the transverse sqrt(2*E_0m)
    component, and `flag` records a violated smallness constraint.
    """

    __slots__ = ("m", "n", "vector", "kind", "flag")

    def __init__(self, m: int, n: int, vector: complex, kind: str, flag: str | None = None):
        self.m = m
        self.n = n
        self.vector = vector
        self.kind = kind
        self.flag = flag

    @property
    def energy(self) -> float:
        return 0.5 * abs(self.vector) ** 2


class PeriodicSkeletonData:
    """Evidence that momenta parallel to the direction period quantize.

    Present when C2*(D2.D1) = k*C1*|D2|^2 for an integer k; the skeleton runs
    along the pair's second period (`direction_index` into the lattice basis)
    and `alpha` is the angle between the pair periods.

    The skeleton's momenta are built only through its methods, which share
    the floats |D1|*sin(alpha), |D2|^2 and the transverse unit 1j*D2/|D2|,
    each computed once.
    """

    def __init__(
        self,
        k: int,
        alpha: float,
        direction_index: int,
        c1: int,
        c2: int,
        d1: complex,
        d2: complex,
    ):
        self.k = k
        self.alpha = alpha
        self.direction_index = direction_index
        self.c1 = c1
        self.c2 = c2
        self.d1 = d1
        self.d2 = d2

    @cached_property
    def t_den(self) -> float:
        return abs(self.d1) * math.sin(self.alpha)

    @cached_property
    def d2_sq(self) -> float:
        return abs(self.d2) ** 2

    @cached_property
    def transverse(self) -> complex:
        return 1j * (self.d2 / abs(self.d2))  # the local x-axis, perpendicular to the rays

    def transverse_t(self, m: int) -> float:
        """sqrt(2*E_0m), from sqrt(2*E_0m)*D1*sin(alpha) = 2*pi*m*C1."""
        return 2 * math.pi * m * self.c1 / self.t_den

    def periodic(self, n: int) -> complex:
        """The momentum along D2 whose wavelength fits C2*n times into D2."""
        return (2 * math.pi * n * self.c2 / self.d2_sq) * self.d2

    def quantum(
        self, t: float, base: complex, max_ratio: float
    ) -> tuple[complex, float, str | None]:
        """Vector, transverse/longitudinal ratio and flag of the quantum state
        with transverse part t over the periodic momentum base."""
        ratio = t / abs(base)
        return t * self.transverse + base, ratio, ("eq21c-ratio" if ratio > max_ratio else None)


class SpectrumEntry:
    """One energy level: representative labels, kind, and degeneracy.

    `lam` is the free wavelength 2*pi/|p|; `lam_pair` holds the wavelengths
    along the two pair periods (D_i measured in them is the integer |label|*C_i),
    None for quantum entries where the transverse label is not a projection
    count.
    """

    __slots__ = ("labels", "energy", "kind", "degeneracy", "lam", "lam_pair", "flag")

    def __init__(
        self,
        labels: tuple[int, int],
        energy: float,
        kind: str,
        degeneracy: int,
        lam: float,
        lam_pair: tuple[float, float] | None,
        flag: str | None = None,
    ):
        self.labels = labels
        self.energy = energy
        self.kind = kind
        self.degeneracy = degeneracy
        self.lam = lam
        self.lam_pair = lam_pair
        self.flag = flag


class WavelengthEntry:
    """Wavelength bookkeeping of one basis period against a momentum."""

    __slots__ = ("period", "wavelength", "count", "law_count", "ok")

    def __init__(
        self, period: Period, wavelength: float, count: float, law_count: int | None, ok: bool
    ):
        self.period = period
        self.wavelength = wavelength
        self.count = count
        self.law_count = law_count
        self.ok = ok


def _refuse_past_memory(count: float, item_bytes: int, what: str) -> None:
    """Raise OutOfRange when `count` items of at least `item_bytes` each outrun physical memory.

    `item_bytes` is a lower bound on what one item costs, so no run that
    fits in memory is refused.  Where the platform does not report its
    memory, the bound is sys.maxsize items, the most a list can hold.  The
    message is `what` followed by "than memory can hold".
    """
    try:
        limit = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / item_bytes
    except (AttributeError, ValueError, OSError):
        limit = sys.maxsize
    if not count <= limit:
        raise OutOfRange(f"{what} than memory can hold")


def _pair_floats(lattice: PeriodLattice) -> tuple[complex, complex]:
    f = lattice.frame
    return f.to_complex(lattice.d1), f.to_complex(lattice.d2)


def _dual_steps(lattice: PeriodLattice) -> tuple[complex, complex]:
    """Vectors P1, P2 with p_mn = m*P1 + n*P2 (the closed-form solution)."""
    z1, z2 = _pair_floats(lattice)
    c1, c2 = lattice.c1, lattice.c2
    s = (z1.conjugate() * z2).imag
    dot = (z1.conjugate() * z2).real
    p1 = 2 * math.pi * c1 * (abs(z2) ** 2 * z1 - dot * z2) / s**2
    p2 = 2 * math.pi * c2 * (abs(z1) ** 2 * z2 - dot * z1) / s**2
    return p1, p2


def _basis_floats(lattice: PeriodLattice) -> list[tuple[complex, float]]:
    """Each basis period as a complex number, with its modulus."""
    f = lattice.frame
    return [(z, abs(z)) for z in (f.to_complex(per.vector) for per in lattice.basis)]


def _classify_classical(periods: list[tuple[complex, float]], p: complex) -> str:
    """Parallel to any basis period (`_basis_floats`) means the skeleton is
    periodic."""
    tol = _REL_TOL * abs(p)
    for z, az in periods:
        if abs((p.conjugate() * z).imag) <= tol * az:
            return CLASSICAL_PERIODIC
    return CLASSICAL_APERIODIC


def momentum_aperiodic(lattice: PeriodLattice, m: int, n: int) -> QuantizedMomentum:
    """The unique momentum with p.D1 = 2*pi*m*C1 and p.D2 = 2*pi*n*C2.

    Raises NotDoublyRational on lattices without rational relations and
    OutOfRange at the excluded origin m = n = 0.  The returned kind records
    whether the momentum happens to be parallel to a basis period (a periodic
    skeleton) or not.
    """
    if abs(m) + abs(n) == 0:
        raise OutOfRange("momentum labels m = n = 0 carry no motion")
    p1, p2 = _dual_steps(lattice)  # raises NotDoublyRational via lattice.c1
    p = m * p1 + n * p2
    return QuantizedMomentum(
        m=m, n=n, vector=p, kind=_classify_classical(_basis_floats(lattice), p)
    )


def periodic_skeleton_check(
    lattice: PeriodLattice, pair_choice: tuple[int, int] | None = None
) -> PeriodicSkeletonData | None:
    """Decide whether momenta parallel to the pair's second period quantize.

    Returns the integer k with C2*(D2.D1) = k*C1*|D2|^2, the pair angle, and
    the direction period index — or None when no integer k exists (the pair
    is generic and admits only aperiodic skeletons).  A `pair_choice` other
    than the lattice's own reference pair moves the lattice to that pair by
    exact Fraction algebra on its table (`with_pair`).
    """
    if not lattice.doubly_rational:
        raise NotDoublyRational("periodic skeletons need rational period relations")
    f = lattice.frame
    if pair_choice is not None and pair_choice != lattice.pair_indexes:
        lattice = with_pair(lattice, pair_choice)
    c1, c2, d1, d2 = lattice.c1, lattice.c2, lattice.d1, lattice.d2
    r = f.rational_value(f.quotient(c2 * f.dot(d2, d1), c1 * f.dot(d2, d2)))
    if r is None or r.denominator != 1:
        return None
    z1, z2 = f.to_complex(d1), f.to_complex(d2)
    cosang = (z1.conjugate() * z2).real / (abs(z1) * abs(z2))
    alpha = math.acos(max(-1.0, min(1.0, cosang)))
    return PeriodicSkeletonData(
        k=int(r), alpha=alpha, direction_index=lattice.pair_indexes[1],
        c1=c1, c2=c2, d1=z1, d2=z2,
    )


def momentum_periodic(
    lattice: PeriodLattice,
    data: PeriodicSkeletonData | None,
    n: int,
    along: Period | None = None,
) -> QuantizedMomentum:
    """Momentum of the skeleton parallel to the direction period: all of its
    wavelength fits C2*n times into D2.

    With `along`, the same momentum is computed from a channel period
    collinear with the direction (D_l = (p_l/q_l)*D2, effective count
    C_l = n_l*p_l with n_l = C2/q_l); the two routes agree identically.
    Raises NotPeriodicSkeleton without check data and OutOfRange for n = 0.
    """
    if data is None:
        raise NotPeriodicSkeleton("no integer k: this pair has no periodic skeleton")
    if n == 0:
        raise OutOfRange("periodic skeleton label n must be nonzero")
    if along is None:
        p = data.periodic(n)
    else:
        f = lattice.frame
        v = along.vector
        d2 = lattice.basis[data.direction_index].vector
        scale = abs(f.to_complex(v)) * abs(data.d2)
        if not f.is_zero(f.cross(v, d2), scale=scale):
            raise NotPeriodicSkeleton("channel period is not parallel to the direction")
        ratio = f.rational_value(f.quotient(f.dot(v, d2), f.dot(d2, d2)))
        if ratio is None or data.c2 % ratio.denominator != 0:
            raise NotPeriodicSkeleton("channel period is not commensurate with D2")
        n_l = data.c2 // ratio.denominator
        c_l = n_l * abs(ratio.numerator)
        zl = f.to_complex(v)
        p = (2 * math.pi * n * c_l / abs(zl) ** 2) * zl
        if ratio < 0:
            p = -p
    return QuantizedMomentum(
        m=data.k * n, n=n, vector=p, kind=CLASSICAL_PERIODIC
    )


def quantum_momentum(
    lattice: PeriodLattice,
    data: PeriodicSkeletonData | None,
    m: int,
    n: int,
    max_ratio: float = 0.2,
    has_aperiodic_bundle: bool = True,
) -> QuantizedMomentum:
    """Pseudo-momentum of a periodic skeleton with m transverse wavelengths.

    In the skeleton-local frame the components are (+-sqrt(2*E_0m), p_per)
    with sqrt(2*E_0m)*D1*sin(alpha) = 2*pi*m*C1; the returned vector is the
    + branch rotated to global coordinates.  m = 0 degenerates to the plain
    periodic momentum and is only meaningful when the skeleton contains an
    aperiodic bundle (all-channel skeletons start at m = 1).  When the
    transverse part is not small (ratio above `max_ratio`) the momentum is
    flagged and a ConstraintViolation warning is emitted — the construction
    stays exact, the flag marks a formally violated asymptotic ordering.
    """
    if data is None:
        raise NotPeriodicSkeleton("no integer k: this pair has no periodic skeleton")
    if m < 0:
        raise OutOfRange("transverse label m must be >= 0")
    if m == 0 and not has_aperiodic_bundle:
        raise OutOfRange("an all-channel skeleton has no m = 0 state")
    base = momentum_periodic(lattice, data, n)
    vector, ratio, flag = data.quantum(data.transverse_t(m), base.vector, max_ratio)
    if flag:
        warnings.warn(
            ConstraintViolation(
                f"transverse/longitudinal momentum ratio {ratio:.3g} exceeds {max_ratio}"
            ),
            stacklevel=2,
        )
    return QuantizedMomentum(m=m, n=n, vector=vector, kind=QUANTUM, flag=flag)


def spectrum(
    lattice: PeriodLattice,
    e_max: float,
    kinds: tuple[str, ...] = (CLASSICAL_APERIODIC, CLASSICAL_PERIODIC),
    max_ratio: float = 0.2,
) -> list[SpectrumEntry]:
    """All energy levels up to e_max from the requested momentum families.

    Classical entries cover every label pair |m|+|n| > 0 of the closed form
    p = m*P1 + n*P2 with E = 0.5*|p|^2 <= e_max (1e-9 relative slack).  The
    labels (m, n) and (-m, -n) are a plane wave and its time reverse, and
    m*P1 + n*P2 negates bit for bit under that map, so the twins have the
    same float energy 0.5*abs(p)**2 and the same kind.  Only the smaller
    twin is walked: the rows m < 0, and row 0 with n < 0.  Row m runs over
    the labels n between the roots of the energy quadratic
    g22*n^2 + 2*g12*m*n + g11*m^2 = 2*cutoff (g the Gram matrix of P1, P2),
    widened by one label on each side, and the rows stop one past the
    ellipse's row extent sqrt(2*cutoff*g22/det); the float energy still
    decides every label.  The basis periods' floats are computed once.  An
    e_max whose half ellipse, about pi*cutoff/sqrt(det) labels, cannot fit
    in physical memory at `sys.getsizeof` of one raw entry and its labels
    tuple per label raises OutOfRange.  The quantum family (opt-in via
    kinds) adds the transverse-quantized levels m, n >= 1 of the skeleton
    along the lattice's own pair when that skeleton exists.  `kinds` holds
    "classical-aperiodic", "classical-periodic" or "quantum"; a string, or
    any other element, raises OutOfRange.

    Each run of levels of equal kind within 1e-9 relative of its first
    energy merges into one entry with the lexicographically smallest
    labels.  Twins sort next to each other with equal (energy, kind), so
    they always share a run and its smallest label is a walked one: a
    classical run's degeneracy counts each walked label twice, a quantum
    run's once.
    """
    if e_max <= 0:
        raise OutOfRange("e_max must be positive")
    allowed = (CLASSICAL_APERIODIC, CLASSICAL_PERIODIC, QUANTUM)
    if isinstance(kinds, str) or any(k not in allowed for k in kinds):
        raise OutOfRange(f"kinds must be a collection of {', '.join(allowed)}; got {kinds!r}")
    raw: list[tuple[float, str, tuple[int, int], str | None]] = []
    pair: list[tuple[float, int]] = []  # (|D_i|, C_i): the classical wavelengths

    if kinds:
        p1, p2 = _dual_steps(lattice)
        g11, g22 = abs(p1) ** 2, abs(p2) ** 2
        g12 = (p1.conjugate() * p2).real
        det = g11 * g22 - g12 * g12
        cutoff = e_max * (1 + _REL_TOL)
        # the walk visits the half ellipse; the quantum levels are fewer than its labels
        entry = (cutoff, CLASSICAL_APERIODIC, (0, 0), None)
        entry_bytes = sys.getsizeof(entry) + sys.getsizeof(entry[2])
        _refuse_past_memory(math.pi * cutoff / math.sqrt(det), entry_bytes,
                            f"e_max {e_max:g} puts more levels below it")

    if CLASSICAL_APERIODIC in kinds or CLASSICAL_PERIODIC in kinds:
        rows = int(math.sqrt(2 * cutoff * g22 / det)) + 1
        periods = _basis_floats(lattice)
        pair = [(abs(z), c) for z, c in zip(_pair_floats(lattice), (lattice.c1, lattice.c2))]
        for m in range(-rows, 1):
            mid = -g12 * m / g22
            half = math.sqrt(max(2 * cutoff * g22 - det * m * m, 0.0)) / g22
            mp1 = m * p1
            n_end = math.ceil(mid + half) + 2 if m else 0  # row 0 stops before the origin
            for n in range(math.floor(mid - half) - 1, n_end):
                p = mp1 + n * p2
                e = 0.5 * abs(p) ** 2
                if e > cutoff:
                    continue
                kind = _classify_classical(periods, p)
                if kind in kinds:
                    raw.append((e, kind, (m, n), None))

    if QUANTUM in kinds:
        data = periodic_skeleton_check(lattice)
        if data is not None:
            m = 1
            while True:
                t = data.transverse_t(m)
                if 0.5 * t * t > e_max:
                    break
                n = 1
                while True:
                    vector, _ratio, flag = data.quantum(t, data.periodic(n), max_ratio)
                    e = 0.5 * abs(vector) ** 2
                    if e > cutoff:
                        break
                    raw.append((e, QUANTUM, (m, n), flag))
                    n += 1
                if n == 1:
                    break
                m += 1

    raw.sort()  # (energy, kind, labels) is unique, so no further field compares
    runs: list[list] = []
    for r in raw:
        if runs and r[1] == head[1] and abs(r[0] - head[0]) <= slack:
            runs[-1].append(r)
        else:
            head, slack = r, _REL_TOL * max(1.0, abs(r[0]))
            runs.append([r])
    # the run heads come in raw's order, so the entries come out sorted
    entries = []
    for run in runs:
        e, kind = run[0][0], run[0][1]
        labels = min(r[2] for r in run)
        lam_pair = None
        if kind != QUANTUM:
            lam_pair = tuple(a / (abs(k) * c) if k else math.inf for (a, c), k in zip(pair, labels))
        entries.append(
            SpectrumEntry(
                labels=labels,
                energy=e,
                kind=kind,
                degeneracy=len(run) if kind == QUANTUM else 2 * len(run),
                lam=2 * math.pi / math.sqrt(2 * e),
                lam_pair=lam_pair,
                flag=next((r[3] for r in run if r[3]), None),
            )
        )
    return entries


def wavelength_report(lattice: PeriodLattice, momentum) -> list[WavelengthEntry]:
    """Measure every basis period in wavelengths of the given momentum.

    A properly quantized momentum fits an integer number of wavelengths into
    each period; the integer also follows from the labels through the
    generator coordinates (count = |r1*m + r2*n|), reported as `law_count`.
    Non-integer counts mark the entry as a violation rather than raising.
    """
    if isinstance(momentum, QuantizedMomentum):
        p = momentum.vector
        labels = (momentum.m, momentum.n)
        with_law = momentum.kind != QUANTUM
    else:
        p = complex(momentum[0], momentum[1]) if not isinstance(momentum, complex) else momentum
        labels = None
        with_law = False
    f = lattice.frame
    out = []
    for per in lattice.basis:
        z = f.to_complex(per.vector)
        proj = abs((p.conjugate() * z).real)
        count = proj / (2 * math.pi)
        wavelength = math.inf if count < _REL_TOL else abs(z) / count
        law = None
        if with_law and lattice.doubly_rational:
            r1, r2 = reduce_period(per, lattice)
            law = abs(r1 * labels[0] + r2 * labels[1])
        ok = abs(count - round(count)) <= _REL_TOL * max(1.0, count) and (
            law is None or round(count) == law
        )
        out.append(
            WavelengthEntry(
                period=per, wavelength=wavelength, count=count, law_count=law, ok=ok
            )
        )
    return out


def spectrum_csv(entries: list[SpectrumEntry]) -> str:
    """Deterministic CSV dump: level_index,m,n,kind,energy,degeneracy,flag."""
    lines = ["level_index,m,n,kind,energy,degeneracy,flag"]
    for idx, s in enumerate(entries):
        lines.append(
            f"{idx},{s.labels[0]},{s.labels[1]},{s.kind},"
            f"{s.energy:.12g},{s.degeneracy},{s.flag or ''}"
        )
    return "\n".join(lines) + "\n"
