"""Exception and warning types shared across the package, and the memory guard.

`_refuse_past_memory` sits here, below every module that allocates by a
size a user chooses, so that each can refuse that size before it builds.
"""

from __future__ import annotations

import os
import sys


class BilliardError(Exception):
    """Base class for all package-specific errors."""


class ClosureViolation(BilliardError):
    """The polygon side chain does not return to the start point."""


class SelfIntersection(BilliardError):
    """Polygon boundary crosses itself."""


class NonCoprimeAngle(UserWarning):
    """Angle given as p/q with gcd(p, q) > 1; it is reduced automatically."""


class SingularSystem(BilliardError):
    """Closure system is singular for the requested unknown lengths."""


class NonpositiveLength(BilliardError):
    """A side length is zero or negative."""


class CannotBalance(BilliardError):
    """Rationalized angles cannot be adjusted to an exact polygon angle sum."""


class NonIntegerGenus(BilliardError):
    """Genus formula did not evaluate to an integer (invalid angle data)."""


class RankMismatch(BilliardError):
    """Number of independent periods does not match twice the genus."""


class DegeneratePair(BilliardError):
    """Chosen pair of periods is collinear."""


class NotInLattice(BilliardError):
    """Vector is not an integer combination of the commensurate sublattice."""


class NotDoublyRational(BilliardError):
    """Operation requires rational period relations, none were detected."""


class NotPeriodicSkeleton(BilliardError):
    """Pair does not satisfy the integer projection condition."""


class UnquantizedMomentum(BilliardError):
    """Momentum does not satisfy the lattice quantization conditions."""


class DegenerateCombination(BilliardError):
    """Requested real combination vanishes identically."""


class SymmetryNotAutomorphism(BilliardError):
    """Probed map does not send the polygon onto itself."""


class MomentumMismatch(BilliardError):
    """Plane-wave terms carry momenta of unequal magnitude."""


class TooCoarse(BilliardError):
    """Grid spacing too large to resolve the polygon."""


class ConvergenceFailure(BilliardError):
    """An iterative search gave up: an FD eigensolver, or a channel march that found no exit."""


class OutOfRange(BilliardError):
    """Numeric argument outside its documented domain."""


class ConstraintViolation(UserWarning):
    """Quantum transverse momentum outside the slow-variation regime."""


def _memory_bytes() -> int | None:
    """The bytes this process may hold: physical memory, or the soft
    address-space limit (RLIMIT_AS) where one is set below it; None where
    the platform reports neither."""
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        memory = None
    try:
        import resource

        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    except (ImportError, AttributeError, ValueError, OSError):  # no such limit here
        return memory
    if soft != resource.RLIM_INFINITY and (memory is None or soft < memory):
        memory = soft
    return memory


def _refuse_past_memory(count: float, item_bytes: int, what: str) -> None:
    """Raise OutOfRange when `count` items of at least `item_bytes` each outrun `_memory_bytes`.

    `item_bytes` is a lower bound on what one item costs, so no run that
    fits in memory is refused, and the bound is the smaller of physical
    memory and a soft address-space limit, so a capped run is refused
    rather than dying of MemoryError.  Where the platform reports neither,
    the bound is sys.maxsize items, the most a list can hold.  The message
    is `what` followed by "than memory can hold".
    """
    memory = _memory_bytes()
    limit = sys.maxsize if memory is None else memory / item_bytes
    if not count <= limit:
        raise OutOfRange(f"{what} than memory can hold")
