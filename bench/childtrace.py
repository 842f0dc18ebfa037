"""Run one `polybilliard` command with spans around the CLI's calls into the package.

    python3 bench/childtrace.py SPANS_FILE ARG...

Behaves as `python -m polybilliard ARG...` (same stdout, files and exit
code) and writes the spans and work counts to SPANS_FILE.  The traced `cli`
run uses it so that the layers inside each command show up in the
per-layer metrics; the spans' clock (CLOCK_MONOTONIC) is shared with the
parent process.
"""

from __future__ import annotations

import sys
from pathlib import Path

from common import Tracer


def _mode(frame) -> dict:
    return {"mode": "exact_s" if frame.exact else "float_s"}


# name in polybilliard.cli -> (span name, attrs from the call's arguments)
CALLS = {
    "load_polygon": ("exactgeom.validate_polygon", None),
    "build_epp": ("unfold.build_epp", lambda a: _mode(a[0].frame)),
    "period_basis": ("unfold.period_basis", lambda a: _mode(a[0].polygon.frame)),
    "period_lattice": ("lattice.period_lattice", lambda a: _mode(a[0])),
    "spectrum": ("quantize.spectrum", None),
    "spectrum_csv": ("quantize.spectrum_csv", None),
    "enumerate_prescriptions": ("swf.enumerate_prescriptions", None),
    "compile_swf": ("swf.compile_swf", None),
    "grid_csv": ("swf.grid_csv", None),
    "grid_pgm": ("swf.grid_pgm", None),
    "verify_boundary": ("swf.verify_boundary", None),
    "verify_helmholtz": ("swf.verify_helmholtz", None),
    "rasterize": ("oracle.rasterize", None),
    "fd_eigenvalues": ("oracle.fd_eigenvalues",
                       lambda a: {"bucket": "n_le_4000.s" if a[0].interior_count <= 4000 else "n_gt_4000.s"}),
    "compare_spectra": ("oracle.compare_spectra", None),
}


def _wrap(tracer: Tracer, span: str, attrs, fn):
    def traced(*args, **kwargs):
        return tracer.call(span, fn, *args, attrs=attrs(args) if attrs else None, **kwargs)

    return traced


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    import polybilliard.cli as cli

    tracer = Tracer()
    for name, (span, attrs) in CALLS.items():
        setattr(cli, name, _wrap(tracer, span, attrs, getattr(cli, name)))
    try:
        return cli.run(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
