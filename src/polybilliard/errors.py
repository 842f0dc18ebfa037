"""Exception and warning types shared across the package."""

from __future__ import annotations


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
