"""Harness shared by the workloads: ops, the timed loop, spans and summaries.

Only the standard library is used here, so importing this module loads
neither numpy nor the package under test.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import metadata
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# BLAS/OpenMP pools are capped before numpy loads.  One thread keeps runs
# comparable across machines with different core counts and steadier on a
# shared host; the package's own POLYBILLIARD_THREADS knob is not relied on.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads(env: dict) -> dict:
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    return env


def pin_cpu() -> None:
    """Keep this process, and every child it starts, on one CPU.

    On a shared host each CPU's speed drifts on its own, so a process the
    scheduler moves between CPUs runs at a speed the reference kernel, timed
    on whichever CPU it ran on, does not see.  The benchmark is a single
    client and runs one op at a time, so one CPU is all it uses."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env() -> dict:
    """Environment for child interpreters: pinned threads, package on the path."""
    env = pin_threads(dict(os.environ))
    env["PYTHONPATH"] = str(SRC)
    return env


def environment() -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


# --------------------------------------------------------------------------
# spans


def _distinct_periods(epp) -> int:
    seen = set()
    for e in epp.edge_pairs:
        z = epp.polygon.frame.to_complex(e.period.vector)
        seen.add((round(z.real, 9), round(z.imag, 9)))
    return len(seen)


# Work counts read off a call's arguments and result, by span name.  They are
# taken after the span ends, so they cost no span time.
COUNTERS = {
    "exactgeom.validate_polygon": lambda args, poly: {
        "exactgeom.exact_frames": int(poly.frame.exact),
        "exactgeom.float_frames": int(not poly.frame.exact),
    },
    "unfold.build_epp": lambda args, epp: {
        "unfold.images": len(epp.images),
        "unfold.edge_classes": len(epp.edges),
        "unfold.boundary_pairs": len(epp.edge_pairs),
        "unfold.distinct_periods": _distinct_periods(epp),
    },
    "unfold.period_basis": lambda args, basis: {"unfold.genus": len(basis) // 2},
    "lattice.period_lattice": lambda args, lat: {"lattice.drpb_yes": int(lat.doubly_rational)},
    "quantize.spectrum": lambda args, entries: {
        "quantize.spectrum.levels": len(entries),
        "quantize.spectrum.states": sum(e.degeneracy for e in entries),
    },
    "swf.grid_csv": lambda args, out: _grid_counts(*args[:3]),
    "swf.grid_pgm": lambda args, out: _grid_counts(*args[:3]),
    "oracle.fd_eigenvalues": lambda args, levels: {
        "oracle.fd_unknowns": args[0].interior_count,
        "oracle.fd_levels": len(levels),
    },
}


def _grid_counts(psi, width: int, height: int) -> dict:
    return {"swf.grid_points": width * height, "swf.term_evaluations": width * height * len(psi.terms)}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    attrs: dict


class Tracer:
    """Records spans around calls into the package; kept in memory."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self.op_id: int | None = None

    def call(self, name: str, fn: Callable, *args, attrs: dict | None = None, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, 0.0, parent, self.op_id, attrs or {})
        self.spans.append(span)
        self._stack.append(idx)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if name in COUNTERS:
            for key, value in COUNTERS[name](args, result).items():
                self.count(key, value)
        return result

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def dump(self, path: Path) -> None:
        """Write spans and counts as one JSON object, the form `adopt` reads."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": [vars(s) for s in self.spans], "counts": self.counts}, fh)

    def adopt(self, path: Path, parent: int) -> None:
        """Add the spans and counts a child process dumped to `path`, its
        top-level spans under span `parent`."""
        with open(path) as fh:
            data = json.load(fh)
        base = len(self.spans)
        for r in data["spans"]:
            up = parent if r["parent"] is None else base + r["parent"]
            self.spans.append(Span(r["name"], r["start"], r["end"], up, self.op_id, r["attrs"]))
        for key, value in data["counts"].items():
            self.count(key, value)


class NullTracer:
    """Stand-in for untraced runs: calls straight through, counts nothing."""

    enabled = False

    def call(self, name, fn, *args, attrs=None, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value) -> None:
        pass


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    covered = [0.0] * len(spans)
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    for idx, kids in children.items():
        merged, last = 0.0, None
        for k in sorted(kids, key=lambda s: s.start):
            lo = k.start if last is None else max(k.start, last)
            if k.end > lo:
                merged += k.end - lo
            last = k.end if last is None else max(last, k.end)
        covered[idx] = merged
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def layer_sums(spans: list[Span]) -> tuple[dict[str, float], float, float]:
    """Self time per layer metric, op self time, and total op time.

    A span named "unfold.build_epp" adds to "unfold.build_epp.s"; a span
    tagged with a "mode" or "bucket" attribute also adds to the metric named
    by appending the tag, such as "unfold.build_epp.exact_s".
    """
    sums: dict[str, float] = {}
    op_self = op_total = 0.0
    for s, st in zip(spans, self_times(spans)):
        if s.name == "op":
            op_self += st
            op_total += s.end - s.start
            continue
        for key in [f"{s.name}.s"] + [f"{s.name}.{s.attrs[k]}" for k in ("mode", "bucket") if k in s.attrs]:
            sums[key] = sums.get(key, 0.0) + st
    return sums, op_self, op_total


# --------------------------------------------------------------------------
# ops and the timed loop


@dataclass
class Op:
    """One closed-loop request: `run` calls the package, `check` returns None
    when the output matches the reference, else the reason it does not."""

    label: str
    run: Callable
    check: Callable[[object], str | None]
    kind: str = "python"  # the KERNELS entry whose speed sets this op's time


@dataclass
class Outcome:
    label: str
    seconds: float
    error: str | None
    kind: str
    start: float  # perf_counter() when the op started


@dataclass
class LoopResult:
    outcomes: list[Outcome] = field(default_factory=list)
    wall: float = 0.0  # the ops' own wall time, checks included, kernel timings not
    passes: int = 0
    kinds: tuple[str, ...] = ()  # the op kinds in the loop, whose kernels it times
    cal: list[dict[str, float]] = field(default_factory=list)  # calibrate(), before each op and at the end
    cal_at: list[float] = field(default_factory=list)  # perf_counter() when each cal entry began

    def sample_speed(self) -> None:
        self.cal_at.append(time.perf_counter())
        self.cal.append(calibrate(self.kinds))


def execute(op: Op, tracer, op_id: int) -> Outcome:
    """Run one op, timing only the calls into the program."""
    if tracer.enabled:
        tracer.op_id = op_id
    start = time.perf_counter()
    try:
        out = tracer.call("op", op.run, tracer, attrs={"label": op.label})
    except Exception as exc:  # any exception is a failed op, not a crash
        return Outcome(op.label, time.perf_counter() - start, f"{type(exc).__name__}: {exc}", op.kind, start)
    seconds = time.perf_counter() - start
    try:
        reason = op.check(out)
    except Exception as exc:
        reason = f"check raised {type(exc).__name__}: {exc}"
    return Outcome(op.label, seconds, reason, op.kind, start)


def run_passes(passes: list[list[Op]], tracer, result: LoopResult, calibrated: bool = False) -> None:
    for ops in passes:
        for op in ops:
            if calibrated:
                result.sample_speed()
            start = time.perf_counter()
            result.outcomes.append(execute(op, tracer, len(result.outcomes)))
            result.wall += time.perf_counter() - start
        result.passes += 1


def timed_loop(make_pass: Callable[[int], list[Op]], passes: int, first: list[Op]):
    """Run `passes` whole passes, untraced, timing the reference kernel
    before every op and once after the last.

    Whole passes keep the op mix, and so every percentile's place in it,
    identical from run to run.  Inputs for each pass are generated before its
    clock starts, so generation is not timed.
    """
    result = LoopResult(kinds=tuple(sorted({op.kind for op in first})))
    done = [first]
    run_passes(done, NullTracer(), result, calibrated=True)
    while result.passes < passes:
        done.append(make_pass(result.passes))
        run_passes(done[-1:], NullTracer(), result, calibrated=True)
    result.sample_speed()
    return result, done


# --------------------------------------------------------------------------
# host speed
#
# The benchmark runs on shared hosts where each CPU's speed drifts by up to
# 1.9x, switching within seconds and staying for seconds to minutes, so raw
# wall times of the same code differ between two sets of runs by more than
# any useful bound.  Fixed reference kernels, timed next to every op on the
# same CPU (pin_cpu), measure that drift, and end-to-end times are reported
# at the reference speed: a time multiplied by the kernel's reference time
# over its time measured around it.  The drift is not the same for all work:
# interpreted Python, a dense LAPACK eigensolve and the start of a fresh
# interpreter slow down by different factors at the same moment, so there is
# one kernel for each, and each op names the kind of work its time is mostly
# made of (Op.kind).  The kernels call no package code, so no change to the
# package moves them.


def _python_kernel() -> None:
    """Interpreted Python on Fractions, tuples and dicts."""
    acc = Fraction(0)
    for k in range(1, 600):
        acc += Fraction(k % 7 + 1, k % 11 + 1)
    table: dict[tuple[int, int], int] = {}
    for i in range(16000):
        key = (i % 101, i % 7)
        table[key] = table.get(key, 0) + i


_LAPACK_MATRIX = []


def _lapack_kernel() -> None:
    """A dense symmetric eigensolve, as in the FD oracle's dense branch."""
    import numpy as np  # only after pin_threads has set the BLAS pools

    if not _LAPACK_MATRIX:
        _LAPACK_MATRIX.append(np.cos(np.add.outer(np.arange(300.0), np.arange(300.0)) ** 2))
    np.linalg.eigvalsh(_LAPACK_MATRIX[0])


def _startup_kernel() -> None:
    """A fresh interpreter that imports what the package imports from outside.
    Its output is captured, as the cli workload's is: with no pipe to read,
    a wait with a timeout polls, in sleeps of up to 50 ms that would round
    the time up."""
    subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg, scipy.sparse.linalg"],
                   env=child_env(), check=True, capture_output=True, timeout=60)


# kind -> (kernel, its median time on the host the benchmark was tuned on:
# a 2-core x86-64 VM, Python 3.11.7, numpy 2.4.6, scipy 1.17.1, one BLAS
# thread).  The times are constants: changing one rescales every time
# reported for its kind.
KERNELS = {
    "python": (_python_kernel, 0.0095),
    "lapack": (_lapack_kernel, 0.0060),
    "startup": (_startup_kernel, 0.45),
}


def calibrate(kinds) -> dict[str, float]:
    """Wall time of one run of the reference kernel of each kind."""
    out = {}
    for kind in kinds:
        start = time.perf_counter()
        KERNELS[kind][0]()
        out[kind] = time.perf_counter() - start
    return out


def host_speed(samples: list[dict[str, float]], kind: str) -> float:
    """How much faster than the reference the host ran work of this kind
    while the samples were taken."""
    return KERNELS[kind][1] / statistics.median(s[kind] for s in samples)


def op_seconds(result: LoopResult) -> list[float]:
    """Each op's wall time at the reference speed.

    Op i ran between kernel timings i and i + 1.  Its speed is the median of
    those two and of every other timing taken within one op-length of it: a
    short op gets the speed of the moment it ran (the host switches speed
    within seconds), a long one, which outlasts the switches, the speed over
    a stretch as long as itself."""
    cal, at = result.cal, result.cal_at
    out = []
    for i, o in enumerate(result.outcomes):
        lo = min(i, bisect_left(at, o.start - o.seconds))
        hi = max(i + 2, bisect_right(at, o.start + 2 * o.seconds))
        out.append(o.seconds * host_speed(cal[lo:hi], o.kind))
    return out


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def label_medians(result: LoopResult) -> dict[str, float]:
    """Median op time of each stratum (ops sharing a label)."""
    by: dict[str, list[float]] = {}
    for o in result.outcomes:
        by.setdefault(o.label, []).append(o.seconds)
    return {label: statistics.median(v) for label, v in sorted(by.items())}


def end_to_end(result: LoopResult, setup_s: float, rss_mb: float) -> dict:
    """The end-to-end metrics; times at the reference speed (op_seconds)."""
    times = op_seconds(result)
    failed = sum(1 for o in result.outcomes if o.error)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(times) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_p90_s": statistics.quantiles(times, n=10)[-1],
        "peak_rss_mb": rss_mb,
        "fail_frac": failed / len(times),
    }


def rational_scale(rng) -> Fraction:
    """A random factor p/q in [1/2, 2] with p <= 12, q <= 6.  Workloads scale
    shapes of fixed side ratios by it: the seed moves sizes, never the
    ratios, since those set how much work an op does."""
    while True:
        x = Fraction(rng.randint(1, 12), rng.randint(1, 6))
        if Fraction(1, 2) <= x <= 2:
            return x


def require_package() -> None:
    if not (SRC / "polybilliard" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {SRC / 'polybilliard'}; run from a full checkout")
