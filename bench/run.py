"""Benchmark entry point.

    python3 bench/run.py --workload {classical,quantum,cli,all} --seed N
                         [--seconds S] [--trace 0|1] [--results DIR]

One workload per process; `all` starts a fresh process for each.  The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones listed in
BENCHMARK.json, with --trace 1 the per-layer ones.  Run from the root of a
checkout; see bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import os
import time

_T0 = time.perf_counter()

from common import (  # noqa: E402  (stdlib only: numpy is not loaded yet)
    OUT,
    ROOT,
    SRC,
    LoopResult,
    NullTracer,
    Tracer,
    calibrate,
    end_to_end,
    environment,
    execute,
    host_speed,
    label_medians,
    layer_sums,
    op_seconds,
    peak_rss_mb,
    pin_cpu,
    pin_threads,
    require_package,
    run_passes,
    self_times,
    timed_loop,
)

pin_threads(os.environ)  # before anything can import numpy
pin_cpu()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

WORKLOADS = ("classical", "quantum", "cli")
SETUP_RUNS = 3  # set-ups per run, each in a fresh process; setup_s is their median
# Nominal wall time of one pass when the benchmark was added (2-core x86-64
# host).  A run makes --seconds / PASS_S passes, rounded up: a count fixed by
# --seconds alone, so a faster or slower program changes the run's length,
# never its op mix or the place of a percentile in it.
PASS_S = {"classical": 7.0, "quantum": 5.0, "cli": 25.0}


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


class Workload:
    """Set-up state of one workload: the first pass, and how to make more."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.cwd = None
        self.warm_failures: list[str] = []
        if name == "classical":
            import classical

            self.make_pass = lambda i: classical.make_pass(seed, i)
            self._warm(classical.warm_up())
        elif name == "quantum":
            import quantum

            shapes = quantum.build_shapes(seed)
            self.make_pass = lambda i: quantum.make_pass(shapes, seed, i)
            self._warm(quantum.warm_up(shapes))
        else:
            import clitour

            golden = clitour.load_manifest()
            self.cwd = clitour.workdir()
            self.make_pass = lambda i: clitour.make_pass(self.cwd, golden, seed, i)
            clitour.warm_up()
        self.first = self.make_pass(0)

    def _warm(self, ops) -> None:
        for op in ops:
            out = execute(op, NullTracer(), -1)
            if out.error:
                self.warm_failures.append(f"warm-up {out.error}")

    def rss_mb(self) -> float:
        return peak_rss_mb(children=self.name == "cli")

    def close(self) -> None:
        if self.cwd is not None:
            shutil.rmtree(self.cwd, ignore_errors=True)


def _passes(args) -> int:
    return max(1, math.ceil(args.seconds / PASS_S[args.workload]))


def _setup_probe(args) -> float:
    """Set-up time of a fresh process, as that process measured it."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {out.stderr.strip()[-400:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def _setups(args) -> list[tuple[float, float]]:
    """SETUP_RUNS set-up times of fresh processes, at the reference speed and
    raw.  A set-up is mostly a fresh interpreter's imports, so each is
    corrected by the startup kernel timed just before and just after it."""
    cal = [calibrate(("startup",))]
    raws = []
    for _ in range(SETUP_RUNS):
        raws.append(_setup_probe(args))
        cal.append(calibrate(("startup",)))
    return [(raw * host_speed(cal[i:i + 2], "startup"), raw) for i, raw in enumerate(raws)]


def per_layer(names, tracer: Tracer, untraced_wall: float, traced_wall: float, extra: dict) -> dict:
    sums, op_self, _ = layer_sums(tracer.spans)
    values = dict(tracer.counts)
    values.update(sums)
    values.update(extra)
    values["op.self_s"] = op_self
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.ops"] = sum(1 for s in tracer.spans if s.name == "op")
    spectrum_s = values.get("quantize.spectrum.s", 0.0)
    if spectrum_s:
        values["quantize.spectrum.levels_per_s"] = values["quantize.spectrum.levels"] / spectrum_s
    pairs = values.get("unfold.boundary_pairs", 0)
    if pairs:
        values["unfold.distinct_periods_share"] = values["unfold.distinct_periods"] / pairs
    # a layer that does not run in this workload's ops reads 0
    return {name: values.get(name, 0) for name in names}


def run_one(args) -> int:
    require_package()
    sys.path.insert(0, str(SRC))
    wl = Workload(args.workload, args.seed)
    raw_setup = time.perf_counter() - _T0
    if args.setup_only:
        wl.close()
        print(json.dumps({"setup_s": raw_setup}))
        return 0
    bench = spec()
    try:
        if args.trace:
            result, metrics = _traced(args, wl, bench)
        else:
            setups = _setups(args)
            result, _ = timed_loop(wl.make_pass, _passes(args), wl.first)
            e2e = end_to_end(result, statistics.median(s for s, _ in setups), wl.rss_mb())
            metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in bench["end_to_end"]}
            _report(args, result, e2e, setups, bench)
    finally:
        wl.close()

    errors = [o.error for o in result.outcomes if o.error] + wl.warm_failures
    for err in errors[:10]:
        print(f"FAIL {err}", file=sys.stderr)
    line = {
        "correct": not errors,
        "attempted": len(result.outcomes),
        "failed": sum(1 for o in result.outcomes if o.error),
        "metrics": metrics,
    }
    if args.results:
        _save(args, line, result)
    print(json.dumps(line))
    return 0


def _traced(args, wl: Workload, bench: dict):
    """Half the passes untraced, then the same ops again traced."""
    untraced, done = timed_loop(wl.make_pass, math.ceil(_passes(args) / 2), wl.first)
    tracer = Tracer()
    traced = LoopResult()
    run_passes(done, tracer, traced)
    import clitour

    extra = clitour.startup_probe()  # import is part of every workload's set-up
    names = [m["name"] for m in bench["per_layer"]]
    values = per_layer(names, tracer, untraced.wall, traced.wall, extra)
    tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    _, op_self, op_total = layer_sums(tracer.spans)
    layer_self = sum(t for s, t in zip(tracer.spans, self_times(tracer.spans)) if s.name != "op")
    print(f"{args.workload} seed {args.seed}: {len(traced.outcomes)} traced ops; "
          f"layer self {layer_self:.4f} s + op self {op_self:.4f} s of op spans {op_total:.4f} s; "
          f"overhead {traced.wall - untraced.wall:+.4f} s on {untraced.wall:.4f} s untraced")
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name in names:
        print(f"  {name:40s} {values[name]:.6g} {units[name]}")
    return traced, {name: {"value": values[name], "unit": units[name]} for name in names}


def _report(args, result, e2e: dict, setups: list[tuple[float, float]], bench: dict) -> None:
    n = len(result.outcomes)
    beyond = sum(1 for t in op_seconds(result) if t > e2e["op_p90_s"])
    raw = [o.seconds for o in result.outcomes]
    print(f"{args.workload} seed {args.seed}: {n} ops in {result.passes} passes, "
          f"{result.wall:.2f} s timed; "
          f"op_p90_s from {n} samples ({beyond} beyond it); "
          f"set-ups {', '.join(f'{s:.3f}' for s, _ in setups)} s "
          f"(raw {', '.join(f'{r:.3f}' for _, r in setups)} s)")
    speeds = ", ".join(f"{host_speed(result.cal, kind):.3f}x on {kind}" for kind in result.kinds)
    print(f"  host ran at {speeds} the reference speed; raw wall: "
          f"ops_per_s {n / sum(raw):.6g}, op_p50_s {statistics.median(raw):.6g}, "
          f"op_p90_s {statistics.quantiles(raw, n=10)[-1]:.6g}")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    units["fail_frac"] = "ratio"
    for name, value in e2e.items():
        print(f"  {name:12s} {value:.6g} {units[name]}")


def _save(args, line: dict, result) -> None:
    os.makedirs(args.results, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(result.outcomes),
        "passes": result.passes,
        "wall_s": result.wall,
        "host_speed": {kind: host_speed(result.cal, kind) for kind in result.kinds} if result.cal else None,
        "fail_frac": line["failed"] / max(1, line["attempted"]),
        "op_median_s": label_medians(result),
        "env": environment(),
        # raw wall time of each op and the kernel timings around them, so the
        # metrics can be recomputed at any speed correction, or none
        "op_s": [[o.label, o.kind, o.seconds, o.start] for o in result.outcomes],
        "cal_s": result.cal,
        "cal_at_s": result.cal_at,
        **line,
    }
    path = os.path.join(args.results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


def run_all(args) -> int:
    """Each workload in a fresh process, then one table of every metric."""
    rows, status = [], 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.results:
            cmd += ["--results", args.results]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    for name, line in rows:
        frac = line["failed"] / line["attempted"]
        cells = [f"{k} {v['value']:.6g} {v['unit']}" for k, v in line["metrics"].items()]
        print(f"{name}: " + "; ".join(cells) + (f"; fail_frac {frac:.6g} ratio" if not args.trace else ""))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="also write the full result record to this directory")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
