"""`cli` workload: the README quick tour, one fresh `polybilliard` process per command.

Each pass runs the eleven commands below once, in an order the seed
shuffles.  Every command runs in a scratch directory holding copies of the
bundled polygons under `polygons/`, exactly as the README spells it.  An op
passes when its exit code, its stdout and the files it writes are
byte-identical to the golden record in `golden/manifest.json`, taken from
the code of the commit that added this benchmark (`python3 bench/clitour.py
record` writes it again from the code at hand).
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import statistics
import subprocess
import sys
import time

from common import BENCH, OUT, Op, child_env

MANIFEST = BENCH / "golden" / "manifest.json"
INPUTS = BENCH / "inputs"

COMMANDS = (
    ("analyze-broken-rectangle", ["analyze", "polygons/broken_rectangle.json"]),
    ("analyze-isosceles", ["analyze", "polygons/isosceles_pi5.json"]),
    ("unfold-equilateral", ["unfold", "polygons/equilateral.json"]),
    ("unfold-broken-rectangle", ["unfold", "polygons/broken_rectangle.json"]),
    ("quantize-square", ["quantize", "polygons/square.json", "--e-max", "200"]),
    ("quantize-irrational", ["quantize", "polygons/isosceles_pi5.json"]),
    ("quantize-rationalized", ["quantize", "polygons/isosceles_pi5.json", "--rationalize", "100"]),
    ("swf-square", ["swf", "polygons/square.json", "--labels", "1,2", "--grid", "200x200"]),
    ("verify-square", ["verify", "polygons/square.json", "--spacing", "1/64", "--count", "30"]),
    ("verify-against", ["verify", "polygons/broken_rectangle_199_100.json",
                        "--against", "polygons/broken_rectangle.json",
                        "--e-max", "120000", "--rel-tol", "1/99"]),
    ("rationalize-sqrt2", ["rationalize", "1.41421356237309", "--max-denominator", "100"]),
)
WRITES = {"swf-square": ("swf.csv", "swf.pgm")}
# Op.kind of each command: most are mostly interpreter start and imports,
# but at spacing 1/64 the square has n = 3969 unknowns, which the dense
# LAPACK branch solves in most of the command's time
KINDS = {"verify-square": "lapack"}


def _digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def workdir():
    """A fresh scratch directory with the polygons the tour reads."""
    path = OUT / f"cli-{time.time_ns()}"
    (path / "polygons").mkdir(parents=True)
    for src in INPUTS.glob("*.json"):
        shutil.copy(src, path / "polygons" / src.name)
    return path


def _invoke(cwd, cid: str, args: list[str], spans=None) -> dict:
    """Run one command; with `spans`, under childtrace.py, which writes them there."""
    for name in WRITES.get(cid, ()):
        (cwd / name).unlink(missing_ok=True)
    if spans is None:
        command = [sys.executable, "-m", "polybilliard", *args]
    else:
        spans.unlink(missing_ok=True)
        command = [sys.executable, str(BENCH / "childtrace.py"), str(spans), *args]
    proc = subprocess.run(command, cwd=cwd, env=child_env(), capture_output=True, timeout=170)
    files = {name: _digest((cwd / name).read_bytes()) for name in WRITES.get(cid, ())
             if (cwd / name).is_file()}
    return {"exit": proc.returncode, "stdout": _digest(proc.stdout), "files": files,
            "stderr": proc.stderr.decode(errors="replace")[-400:]}


def load_manifest() -> dict:
    with open(MANIFEST) as fh:
        return json.load(fh)


def _op(cwd, golden: dict, cid: str, args: list[str]) -> Op:
    expected = golden[cid]

    def run(tr):
        if not tr.enabled:
            return _invoke(cwd, cid, args)
        spans = cwd / "spans.json"
        parent = len(tr.spans)
        out = tr.call(f"cli.{args[0]}", _invoke, cwd, cid, args, spans)
        tr.adopt(spans, parent)
        return out

    def check(out):
        for key in ("exit", "stdout", "files"):
            if out[key] != expected[key]:
                return f"{cid}: {key} differs from the golden record ({out['stderr'].strip()[-200:]})"
        return None

    return Op(cid, run, check, KINDS.get(cid, "startup"))


def make_pass(cwd, golden: dict, seed: int, index: int) -> list[Op]:
    ops = [_op(cwd, golden, cid, args) for cid, args in COMMANDS]
    random.Random(f"cli:{seed}:{index}").shuffle(ops)
    return ops


def warm_up() -> None:
    """Load the interpreter and the package once so the page cache is warm."""
    subprocess.run([sys.executable, "-c", "import polybilliard.cli"],
                   env=child_env(), check=True, timeout=170)


def startup_probe(runs: int = 5) -> dict:
    """Bare interpreter start, and the import of the CLI module in a fresh process."""
    bare, imports, modules = [], [], []
    code = ("import sys, time; t = time.perf_counter(); import polybilliard.cli; "
            "print(time.perf_counter() - t, len(sys.modules))")
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=child_env(), check=True, timeout=60)
        bare.append(time.perf_counter() - start)
        out = subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                             capture_output=True, text=True, timeout=60).stdout.split()
        imports.append(float(out[0]))
        modules.append(int(out[1]))
    return {
        "cli.interpreter_s": statistics.median(bare),
        "cli.import_s": statistics.median(imports),
        "cli.import_modules": max(modules),
    }


def record() -> None:
    """Write the golden manifest from the code in this checkout."""
    cwd = workdir()
    try:
        golden = {}
        for cid, args in COMMANDS:
            out = _invoke(cwd, cid, args)
            golden[cid] = {"argv": args, "exit": out["exit"], "stdout": out["stdout"],
                           "files": out["files"]}
            print(f"{cid}: exit {out['exit']}, stdout {out['stdout']['bytes']} bytes", file=sys.stderr)
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    MANIFEST.parent.mkdir(parents=True, exist_ok=True)
    with open(MANIFEST, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["record"]:
        sys.exit("usage: python3 bench/clitour.py record")
    record()
