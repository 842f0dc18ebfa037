"""Terminal front end: analyze, unfold, quantize, swf, verify, rationalize.

One binary, subcommand style.  Every command is deterministic — the same
invocation produces byte-identical output — and the exit codes form a small
stable contract scripts can rely on:

  0  success
  2  input error (unreadable file, bad JSON, closure failure, bad flags, an
     --e-max, --grid, --edge-samples or --spacing that memory cannot hold,
     a polygon whose unfolding, 2N images for N the lcm of its angle
     denominators, memory cannot hold, a polygon perimeter past 1e150,
     a quantize lattice whose momenta overflow a float, a swf or verify
     momentum whose energy overflows one)
  3  the billiard is not doubly rational and no --rationalize cap was given
  4  sign-prescription id out of range
  5  verification failure (spectra out of tolerance, boundary/Helmholtz check,
     a --spacing coarser than one eighth of the shortest side, a deformation
     study whose eta does not fall strictly with epsilon), or a search that
     gave up: an FD eigensolver, or a channel march that found no exit

The only environment influence is ``POLYBILLIARD_THREADS=N``, which caps the
BLAS/OpenMP thread pools of both finite-difference eigensolvers, dense and
sparse.  `run` applies it first, before numpy loads: it sets
``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` to N,
and neither the package nor this module imports numpy until `swf` or `verify`
runs.  One of those three that is already set keeps its value; an N that is
not an integer is ignored, and an N below 1 counts as 1.  Everything else
comes in through flags.
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import re
import sys
from fractions import Fraction

from .approx import best_rational
from .errors import (
    BilliardError,
    ConvergenceFailure,
    MomentumMismatch,
    NotDoublyRational,
    OutOfRange,
    TooCoarse,
    _refuse_past_memory,
)
from .exactgeom import DIRICHLET, NEUMANN, load_polygon
from .lattice import PeriodLattice, _period_line, period_lattice, rationalize_relations
from .quantize import (
    CLASSICAL_APERIODIC,
    CLASSICAL_PERIODIC,
    QUANTUM,
    _dual_steps,
    _energy,
    momentum_aperiodic,
    spectrum,
    spectrum_csv,
)
from .unfold import build_epp, period_basis

__all__ = ["run", "main"]

# What `swf` and `verify` use of the numpy-backed modules.  `_bind` puts these
# names into this module's namespace when the command runs, so that importing
# the CLI and running the other commands never loads numpy.  They stay
# attributes of this module (the module `__getattr__` binds them on access),
# so a caller can still wrap them, as bench/childtrace.py does.
_NUMERIC = {
    "oracle": (
        "compare_spectra",
        "fd_eigenvalues",
        "perturbation_study",
        "rasterize",
        "report_csv",
        "study_csv",
    ),
    "swf": (
        "compile_swf",
        "enumerate_prescriptions",
        "grid_csv",
        "grid_pgm",
        "verify_boundary",
        "verify_helmholtz",
    ),
}


def _bind(module: str) -> None:
    """Import `module` and bind its `_NUMERIC` names here.

    A name already bound, for instance one a caller replaced with a wrapper,
    keeps its value.
    """
    found = importlib.import_module(f".{module}", __package__)
    namespace = globals()
    for name in _NUMERIC[module]:
        namespace.setdefault(name, getattr(found, name))


def __getattr__(name: str):
    for module, names in _NUMERIC.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_KIND_NAMES = {
    "aperiodic": CLASSICAL_APERIODIC,
    "periodic": CLASSICAL_PERIODIC,
    "quantum": QUANTUM,
}


# --------------------------------------------------------------------------
# flag parsing helpers


# argparse reads a word with a leading minus as a flag unless it looks like a
# negative decimal; a subparser given this matcher lets a negative fraction
# such as -1/2 through as a value
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


def _fraction_flag(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")


def _positive_fraction_flag(text: str) -> Fraction:
    x = _fraction_flag(text)
    if x <= 0:
        raise argparse.ArgumentTypeError(f"not a positive number: {text!r}")
    return x


def _finite_flag(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return x


def _positive_flag(text: str) -> float:
    x = _finite_flag(text)
    if x <= 0:
        raise argparse.ArgumentTypeError(f"not a positive number: {text!r}")
    return x


def _int_flag(text: str, low: int, what: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if n < low:
        raise argparse.ArgumentTypeError(f"not {what}: {text!r}")
    return n


def _positive_int_flag(text: str) -> int:
    return _int_flag(text, 1, "a positive integer")


def _cap_flag(text: str) -> int:
    return _int_flag(text, 2, "a denominator cap of at least 2")


def _labels_flag(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("labels must look like M,N")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise argparse.ArgumentTypeError(f"labels must be integers: {text!r}")


def _grid_flag(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("grid must look like WIDTHxHEIGHT")
    try:
        w, h = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must be integers: {text!r}")
    if w < 2 or h < 2:
        raise argparse.ArgumentTypeError("grid needs at least 2x2 samples")
    return (w, h)


def _kinds_flag(text: str) -> tuple[str, ...]:
    out = []
    for raw in text.split(","):
        name = raw.strip().lower()
        if name not in _KIND_NAMES:
            raise argparse.ArgumentTypeError(
                f"unknown kind {name!r} (choose from {', '.join(sorted(_KIND_NAMES))})"
            )
        out.append(_KIND_NAMES[name])
    return tuple(out)


def _study_flag(text: str) -> tuple[Fraction, ...]:
    sizes = tuple(_fraction_flag(part) for part in text.split(","))
    if any(e < 0 for e in sizes):
        raise argparse.ArgumentTypeError(f"not a nonnegative size: {text!r}")
    return sizes


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polybilliard",
        description="rational polygon billiards: unfolding, spectra, wave functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="genus, periods, relation table, DRPB verdict")
    p.add_argument("polygon", help="polygon JSON file")

    p = sub.add_parser("unfold", help="dump the elementary pattern and period basis")
    p.add_argument("polygon")
    p.add_argument("--out", help="write the dump to a file instead of stdout")

    p = sub.add_parser("quantize", help="semiclassical spectrum as CSV")
    p.add_argument("polygon")
    p.add_argument("--e-max", type=_finite_flag, default=50.0, help="energy cutoff (default 50)")
    p.add_argument(
        "--kinds",
        type=_kinds_flag,
        default=(CLASSICAL_APERIODIC, CLASSICAL_PERIODIC),
        help="comma list of aperiodic, periodic, quantum (default the classical two)",
    )
    p.add_argument(
        "--max-ratio",
        type=_positive_flag,
        default=0.2,
        help="slow-variation bound for the quantum family (default 0.2)",
    )
    p.add_argument(
        "--rationalize",
        type=_cap_flag,
        metavar="Q",
        help="approximate irrational relations with denominators up to Q",
    )
    p.add_argument("--out", help="write the CSV to a file instead of stdout")

    p = sub.add_parser("swf", help="sample one semiclassical wave on a grid")
    p.add_argument("polygon")
    p.add_argument(
        "--prescription",
        type=int,
        default=1,
        help="sign prescription id, 1-based in enumeration order (default 1)",
    )
    p.add_argument(
        "--labels",
        type=_labels_flag,
        default=(1, 1),
        metavar="M,N",
        help="momentum labels (default 1,1)",
    )
    p.add_argument(
        "--grid",
        type=_grid_flag,
        default=(160, 120),
        metavar="WxH",
        help="sampling grid over the bounding box (default 160x120)",
    )
    p.add_argument(
        "--out-prefix",
        default="swf",
        help="write PREFIX.csv and PREFIX.pgm (default swf)",
    )
    p.add_argument(
        "--edge-samples",
        type=_positive_int_flag,
        default=1000,
        help="boundary-residual samples per edge (default 1000)",
    )
    p.add_argument(
        "--tol",
        type=_positive_flag,
        default=1e-9,
        help="boundary residual tolerance (default 1e-9)",
    )

    p = sub.add_parser(
        "verify", help="finite-difference spectrum against the closed form"
    )
    p._negative_number_matcher = _NEGATIVE_NUMBER
    p.add_argument("polygon")
    p.add_argument(
        "--spacing",
        type=_positive_fraction_flag,
        default=Fraction(1, 64),
        help="grid spacing, a fraction like 1/64 (default 1/64)",
    )
    p.add_argument(
        "--count",
        type=_positive_int_flag,
        default=40,
        help="numerical levels to compute (default 40)",
    )
    p.add_argument(
        "--e-max", type=_finite_flag, default=40.0, help="closed-form cutoff (default 40)"
    )
    p.add_argument(
        "--rel-tol",
        type=_positive_fraction_flag,
        default=Fraction(1, 50),
        help="match tolerance, decimal or fraction (default 0.02)",
    )
    p.add_argument(
        "--bc",
        choices=[DIRICHLET, NEUMANN],
        default=DIRICHLET,
        help="wall condition for both spectra (default dirichlet)",
    )
    p.add_argument(
        "--against",
        metavar="OTHER.json",
        help="compare closed forms of two billiards instead of running the "
        "finite-difference solver (the spectral-incompleteness experiment)",
    )
    p.add_argument(
        "--study",
        type=_study_flag,
        metavar="E1,E2,...",
        help="also run the Dirichlet deformation study at these strictly decreasing sizes",
    )
    p.add_argument(
        "--study-count",
        type=_positive_int_flag,
        default=10,
        help="levels tracked by the deformation study (default 10)",
    )
    p.add_argument("--out", help="write the match CSV to a file instead of stdout")

    p = sub.add_parser("rationalize", help="best fraction under a denominator cap")
    p._negative_number_matcher = _NEGATIVE_NUMBER
    p.add_argument("value", help="a decimal or fraction, e.g. 1.41421356237 or 99/70")
    p.add_argument(
        "--max-denominator",
        type=_cap_flag,
        default=100,
        metavar="Q",
        help="denominator cap (default 100)",
    )

    return parser


# --------------------------------------------------------------------------
# shared plumbing


def _load_lattice(path: str) -> tuple:
    polygon = load_polygon(path)
    epp = build_epp(polygon)
    basis = period_basis(epp)
    lat = period_lattice(polygon.frame, basis)
    return polygon, epp, basis, lat


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _drpb_phrase(lat: PeriodLattice) -> str:
    return "yes" if lat.doubly_rational else "no (irrational relations)"


# --------------------------------------------------------------------------
# subcommands


def cmd_analyze(ns: argparse.Namespace) -> int:
    _, epp, basis, lat = _load_lattice(ns.polygon)
    # the report reads the basis kinds, deciding their channels, so it is
    # built before anything is printed: a decision that fails prints nothing
    report = lat.report()
    print(
        f"g={lat.genus}, images={len(epp.images)}, "
        f"periods={len(basis)}, DRPB={_drpb_phrase(lat)}"
    )
    print(report)
    return 0


def cmd_unfold(ns: argparse.Namespace) -> int:
    polygon = load_polygon(ns.polygon)
    epp = build_epp(polygon)
    basis = period_basis(epp)
    lines = [epp.dump(), "period basis:"]
    lines += (_period_line(idx, per) for idx, per in enumerate(basis))
    _emit("\n".join(lines) + "\n", ns.out)
    return 0


def cmd_quantize(ns: argparse.Namespace) -> int:
    _, _, _, lat = _load_lattice(ns.polygon)
    if not lat.doubly_rational:
        if ns.rationalize is None:
            print(
                "period relations are irrational; re-run with --rationalize Q "
                "to quantize the nearest doubly-rational billiard",
                file=sys.stderr,
            )
            return 3
        lat = rationalize_relations(lat, ns.rationalize)
        print(
            f"approximate: relations rationalized with denominator cap "
            f"Q={ns.rationalize}; the spectrum below belongs to the "
            f"substituted billiard",
            file=sys.stderr,
        )
    entries = spectrum(lat, ns.e_max, kinds=ns.kinds, max_ratio=ns.max_ratio)
    flagged = sum(1 for e in entries if e.flag)
    if flagged:
        print(
            f"{flagged} level(s) violate the slow-variation bound "
            f"(see the flag column)",
            file=sys.stderr,
        )
    _emit(spectrum_csv(entries), ns.out)
    return 0


def cmd_swf(ns: argparse.Namespace) -> int:
    _bind("swf")
    polygon, epp, basis, lat = _load_lattice(ns.polygon)
    prescriptions = enumerate_prescriptions(epp)
    pid = ns.prescription
    if not 1 <= pid <= len(prescriptions):
        print(
            f"prescription id {pid} out of range: this pattern has "
            f"{len(prescriptions)} (ids 1..{len(prescriptions)})",
            file=sys.stderr,
        )
        return 4
    pres = prescriptions[pid - 1]
    m, n = ns.labels
    momentum = momentum_aperiodic(lat, m, n)
    psi = compile_swf(epp, pres, momentum)[0]

    # sample and check everything before writing anything, so that a grid or
    # sample count memory cannot hold leaves stdout and both files untouched
    width, height = ns.grid
    csv_text, pgm = grid_csv(psi, width, height), grid_pgm(psi, width, height)
    boundary = verify_boundary(
        psi, polygon, pres, samples_per_edge=ns.edge_samples, tol=ns.tol
    )
    helm = verify_helmholtz(psi)
    csv_path, pgm_path = f"{ns.out_prefix}.csv", f"{ns.out_prefix}.pgm"
    with open(csv_path, "w") as fh:
        fh.write(csv_text)
    with open(pgm_path, "wb") as fh:
        fh.write(pgm)

    print(f"prescription {pid}/{len(prescriptions)} [{pres.label}], labels ({m},{n})")
    print(f"energy: {psi.energy:.12g}")
    print(f"wrote {csv_path} and {pgm_path} ({width}x{height} grid)")
    for side, bc, res in boundary.entries:
        print(f"side {side} [{bc}]: residual {res:.3e}")
    verdict = "PASS" if boundary.passed else "FAIL"
    print(
        f"boundary max residual {boundary.max_residual:.3e} "
        f"(tol {boundary.tol:g}) {verdict}"
    )
    verdict = "PASS" if helm.passed else "FAIL"
    print(
        f"helmholtz: norm spread {helm.norm_spread:.3e}, "
        f"fd residual {helm.max_residual:.3e} < {helm.bound:.3e} {verdict}"
    )
    return 0 if boundary.passed and helm.passed else 5


def _axis_product_levels(lat: PeriodLattice, e_max: float, bc: str) -> list[float]:
    """Energies of the product modes of an axis-aligned billiard.

    Labels run over ordered pairs: both >= 1 under Dirichlet walls (a zero
    label kills the sine factor), both >= 0 except (0,0) under Neumann.  The
    pair momenta must be axis-aligned for product modes to exist at all.  An
    e_max whose quarter ellipse of labels, about pi*e_max/(4*sqrt(a*b)),
    cannot fit in physical memory at one float per label raises OutOfRange,
    and so does a pair momentum whose energy overflows a float.
    """
    p1, p2 = _dual_steps(lat)
    for p in (p1, p2):
        if min(abs(p.real), abs(p.imag)) > 1e-9 * abs(p):
            raise OutOfRange(
                "verify needs an axis-aligned billiard: the closed-form "
                "product spectrum is undefined for skewed period pairs"
            )
    lo = 1 if bc == DIRICHLET else 0
    a, b = _energy(lat, p1), _energy(lat, p2)
    _refuse_past_memory(math.pi * e_max / (4 * math.sqrt(a * b)), sys.getsizeof(e_max),
                        f"e_max {e_max:g} puts more levels below it")
    levels = []
    m = lo
    while a * m * m <= e_max or m == 0:
        n = lo
        while True:
            e = a * m * m + b * n * n
            if e > e_max:
                break
            if e > 0:
                levels.append(e)
            n += 1
        m += 1
    return sorted(levels)


def cmd_verify(ns: argparse.Namespace) -> int:
    if ns.study is not None and ns.bc != DIRICHLET:
        raise OutOfRange(f"--study solves Dirichlet walls only, not --bc {ns.bc}")
    _bind("oracle")
    polygon, _, _, lat = _load_lattice(ns.polygon)
    if not lat.doubly_rational:
        print(
            "period relations are irrational; there is no closed-form "
            "spectrum to verify against",
            file=sys.stderr,
        )
        return 3
    # float: Fraction does not take the :g format before Python 3.12
    spacing, rel_tol = float(ns.spacing), float(ns.rel_tol)
    sem = _axis_product_levels(lat, ns.e_max, ns.bc)
    # no closed-form level up to --e-max leaves none below any solver's reach
    if sem:
        if ns.against is not None:
            _, _, _, other = _load_lattice(ns.against)
            numerical = _axis_product_levels(other, ns.e_max, ns.bc)
            if not numerical:
                raise OutOfRange(
                    f"{ns.against} has no closed-form level up to --e-max {ns.e_max:g}"
                )
        else:
            domain = rasterize(polygon, spacing, bc_map=ns.bc)
            numerical = fd_eigenvalues(domain, ns.count)
        ceiling = float(numerical[-1]) / (1 + rel_tol)
        sem = [e for e in sem if e <= ceiling]
    if not sem:
        raise OutOfRange(
            "no closed-form level below the numerical reach; raise --count "
            "or --e-max"
        )
    report = compare_spectra(sem, numerical, rel_tol)
    # run the study before printing anything, so that a size it rejects
    # leaves stdout empty
    study = None
    if ns.study is not None:
        study = perturbation_study(polygon, ns.study, count=ns.study_count, h=spacing)
    _emit(report_csv(report), ns.out)
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"spectrum match: {len(report.pairs)} levels, "
        f"max_rel_err={report.max_rel_err:.3e}, "
        f"mean_rel_err={report.mean_rel_err:.3e}, "
        f"unmatched={report.unmatched_fraction:.3f}, "
        f"tol={report.rel_tol:g} {verdict}"
    )
    ok = report.passed

    if study is not None:
        sys.stdout.write(study_csv(study))
        # the bounds are exact and epsilon is their maximum: they cannot fail
        print("deformation bounds: PASS")
        print(
            f"eta strictly decreasing with epsilon: "
            f"{'yes' if study.monotone else 'no'}"
        )
        ok = ok and study.monotone

    return 0 if ok else 5


def cmd_rationalize(ns: argparse.Namespace) -> int:
    text = ns.value.strip()
    try:
        x = Fraction(text) if "/" in text else float(text)
        if not math.isfinite(x):
            raise ValueError
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"not a number: {text!r}")
    best = best_rational(x, ns.max_denominator)
    err = abs(float(x) - best.numerator / best.denominator)
    print(f"{best.numerator}/{best.denominator}")
    print(
        f"input {float(x):.15g}, error {err:.6g}, denominator cap {ns.max_denominator}",
        file=sys.stderr,
    )
    return 0


_DISPATCH = {
    "analyze": cmd_analyze,
    "unfold": cmd_unfold,
    "quantize": cmd_quantize,
    "swf": cmd_swf,
    "verify": cmd_verify,
    "rationalize": cmd_rationalize,
}


# --------------------------------------------------------------------------
# entry points


def _apply_thread_env() -> None:
    """Turn POLYBILLIARD_THREADS into the BLAS/OpenMP caps (see the module docstring)."""
    raw = os.environ.get("POLYBILLIARD_THREADS")
    if not raw:
        return
    try:
        threads = max(1, int(raw))
    except ValueError:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(threads))


def run(argv: list[str] | None = None) -> int:
    """Parse argv, dispatch, and map failures onto the exit-code contract."""
    _apply_thread_env()
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return _DISPATCH[ns.command](ns)
    except NotDoublyRational as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TooCoarse, ConvergenceFailure, MomentumMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except (ValueError, OSError, BilliardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
