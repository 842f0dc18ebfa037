"""Compare two result sets, or report the spread of one.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR
    python3 bench/compare.py RESULTS_DIR

A result set is a directory of records written by `run.py --results DIR`
with --trace 0, one per workload and seed.  For each workload and each
end-to-end metric in BENCHMARK.json, plus fail_frac, the comparison prints
both sides' medians and quartiles, the share of seed-matched pairs the change
wins (ties count for neither) and a verdict:

  improved      the change wins at least 9/10 of at least 10 pairs and the
                medians differ, in its favour, by more than the parent's
                quartile distance;
  worse         the change's median is worse than the parent's by more than
                the metric's bound;
  unresolved    the parent's own quartile distance is wider than the bound,
                and not every change run reads better than every parent run;
  within bound  otherwise.

fail_frac is "worse" whenever the change fails more ops than the parent.
With one directory, the spread (quartile distance over median) of each
metric is printed next to its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict[str, dict[int, dict]]:
    """workload -> seed -> record, for every untraced record in the directory."""
    out: dict[str, dict[int, dict]] = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        rec = json.loads(path.read_text())
        out.setdefault(rec["workload"], {})[rec["seed"]] = rec
    if not out:
        sys.exit(f"no *-trace0.json records in {directory}")
    return out


def metrics() -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"]


def value(rec: dict, name: str) -> float:
    return rec["fail_frac"] if name == "fail_frac" else rec["metrics"][name]["value"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            lower: bool, bound: float) -> tuple[str, float]:
    def better(c: float, p: float) -> bool:
        return c < p if lower else c > p

    wins = sum(1 for p, c in pairs if better(c, p))
    share = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    worse_by = (cm - pm if lower else pm - cm) / abs(pm) if pm else 0.0
    if len(pairs) >= 10 and share >= 0.9 and better(cm, pm) and abs(cm - pm) > p3 - p1:
        return "improved", share
    if worse_by > bound:
        return "worse", share
    all_better = all(better(c, p) for c in change for p in parent)
    if pm and (p3 - p1) / abs(pm) > bound and not all_better:
        return "unresolved", share
    return "within bound", share


def compare(parent_dir: str, change_dir: str) -> None:
    parent, change = load(parent_dir), load(change_dir)
    rows = metrics()
    print(f"{'workload':10s} {'metric':12s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'won':>5s}  verdict")
    for wl in sorted(set(parent) | set(change)):
        p_recs, c_recs = parent.get(wl, {}), change.get(wl, {})
        if not p_recs or not c_recs:
            print(f"{wl:10s} missing from {'parent' if not p_recs else 'change'}")
            continue
        seeds = sorted(set(p_recs) & set(c_recs))
        for m in rows:
            name = m["name"]
            p = [value(r, name) for r in p_recs.values()]
            c = [value(r, name) for r in c_recs.values()]
            pairs = [(value(p_recs[s], name), value(c_recs[s], name)) for s in seeds]
            v, share = verdict(p, c, pairs, m["better"] == "lower", m["bound"])
            print(f"{wl:10s} {name:12s} {_fmt(p):>34s} {_fmt(c):>34s} {share:5.2f}  {v}")
        p_fail = sum(r["failed"] for r in p_recs.values())
        c_fail = sum(r["failed"] for r in c_recs.values())
        p_att = sum(r["attempted"] for r in p_recs.values())
        c_att = sum(r["attempted"] for r in c_recs.values())
        v = "worse" if c_fail * p_att > p_fail * c_att else "within bound"
        print(f"{wl:10s} {'fail_frac':12s} {f'{p_fail}/{p_att}':>34s} {f'{c_fail}/{c_att}':>34s} "
              f"{'':5s}  {v}")


def spread(directory: str) -> None:
    results = load(directory)
    print(f"{'workload':10s} {'metric':12s} {'runs':>4s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for wl, recs in sorted(results.items()):
        for m in metrics() + [{"name": "fail_frac", "bound": 0.0}]:
            vals = [value(r, m["name"]) for r in recs.values()]
            q1, med, q3 = quartiles(vals)
            rel = (q3 - q1) / abs(med) if med else 0.0
            print(f"{wl:10s} {m['name']:12s} {len(vals):4d} {med:12.6g} {rel:8.4f} {m['bound']:6.2f}")


def _fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


if __name__ == "__main__":
    if len(sys.argv) == 3:
        compare(sys.argv[1], sys.argv[2])
    elif len(sys.argv) == 2:
        spread(sys.argv[1])
    else:
        sys.exit(__doc__)
