"""Semiclassical quantization of rational polygon billiards.

The pipeline, in dependency order: exact cyclotomic arithmetic (`cyclo`),
integer linear algebra (`ratlinalg`), validated polygon geometry
(`exactgeom`, ready-made shapes in `shapes`), unfolding into the elementary
pattern with its periods (`unfold`), period-lattice relations and double
rationality (`lattice`), momentum quantization and spectra (`quantize`),
sign prescriptions and plane-wave eigenfunctions (`swf`), the independent
finite-difference oracle (`oracle`), and the command-line front end (`cli`).

Every public name below is importable as ``polybilliard.<name>``; each is
loaded from its module on first access, so that ``import polybilliard`` (and
the CLI, which applies ``POLYBILLIARD_THREADS`` before anything numeric
runs) does not load numpy until a numpy-backed name is used.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    # errors
    "BilliardError": "errors",
    "CannotBalance": "errors",
    "ClosureViolation": "errors",
    "ConvergenceFailure": "errors",
    "DegenerateCombination": "errors",
    "DegeneratePair": "errors",
    "MomentumMismatch": "errors",
    "NonIntegerGenus": "errors",
    "NonpositiveLength": "errors",
    "NotDoublyRational": "errors",
    "NotInLattice": "errors",
    "NotPeriodicSkeleton": "errors",
    "OrbitExplosion": "errors",
    "OutOfRange": "errors",
    "RankMismatch": "errors",
    "SelfIntersection": "errors",
    "SingularSystem": "errors",
    "SymmetryNotAutomorphism": "errors",
    "TooCoarse": "errors",
    "UnquantizedMomentum": "errors",
    # geometry
    "Polygon": "exactgeom",
    "RationalAngle": "exactgeom",
    "load_polygon": "exactgeom",
    "polygon_from_spec": "exactgeom",
    "rationalize_angles": "exactgeom",
    "solve_closure": "exactgeom",
    "validate_polygon": "exactgeom",
    "broken_parallelogram": "shapes",
    "equilateral": "shapes",
    "isosceles_pi5": "shapes",
    "l_shape": "shapes",
    "parallelogram_pi3": "shapes",
    "rectangle": "shapes",
    "right_triangle_rationalized": "shapes",
    "square": "shapes",
    # unfolding and periods
    "EPP": "unfold",
    "Period": "unfold",
    "build_epp": "unfold",
    "channel_exists": "unfold",
    "find_pocs": "unfold",
    "genus": "unfold",
    "period_basis": "unfold",
    "PeriodLattice": "lattice",
    "period_lattice": "lattice",
    "rationalize_relations": "lattice",
    "reduce_period": "lattice",
    # quantization
    "momentum_aperiodic": "quantize",
    "momentum_periodic": "quantize",
    "periodic_skeleton_check": "quantize",
    "quantum_momentum": "quantize",
    "spectrum": "quantize",
    "spectrum_csv": "quantize",
    "wavelength_report": "quantize",
    # wave functions
    "compile_swf": "swf",
    "enumerate_prescriptions": "swf",
    "evaluate": "swf",
    "grid_csv": "swf",
    "grid_pgm": "swf",
    "real_combinations": "swf",
    "symmetry_probe": "swf",
    "verify_boundary": "swf",
    "verify_helmholtz": "swf",
    # oracle
    "compare_spectra": "oracle",
    "deform_domain": "oracle",
    "fd_eigenvalues": "oracle",
    "perturbation_study": "oracle",
    "rasterize": "oracle",
    "richardson_order": "oracle",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
