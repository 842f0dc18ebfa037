"""`classical` workload: the `analyze` path on a stratified draw of rational polygons.

One op builds the polygon, unfolds it (`build_epp` with the default channel
classification), extracts `period_basis` and bundles `period_lattice`.  Every
pass holds the same strata, so each seed gives the same sizes and the same
exact/float mix and the same work; the seed draws sizes, numerators and order:

* 19 small shapes: rectangles, L-shapes and pi/3 parallelograms of fixed
  side ratios at a random rational scale, plus the equilateral triangle,
  the rhombus and the broken parallelogram;
* one triangle (a/N, 1/2, 1/2 - a/N) per rung of TRIANGLE_LADDER, with a
  coprime to N; the rungs cover exact and float frames (the frame turns
  float once phi(4N) exceeds 64) up to 88 images;
* the 2000-image rationalized right triangle, unfolded without
  classification and checked through its genus, as in the acceptance test.

The reference for each op comes from the angles alone: 2*lcm of the angle
denominators images, 2*g periods with g from the angle formula, and a
doubly-rational verdict of "yes" for the rectangle, L-shape and pi/3
parallelogram families.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from math import gcd, lcm

from common import Op, rational_scale

TRIANGLE_LADDER = (6, 8, 10, 12, 16, 20, 38, 44)
A_CYCLE = 4  # numerators per rung; a 4-pass run uses each of them equally
BIG_TRIANGLE = ("353/1000", "1/2", "147/1000")
BROKEN_ANGLES = ("2/3", "1/2", "3/2", "1/2", "1/2", "1/3")
# Side ratios of the small shapes.  Rectangles cost ~3 ms; the L-shapes and
# parallelograms, 40-90 ms each, form the middle of the op-time distribution,
# so the median op falls inside one homogeneous group.
RECTANGLES = ((1, 1), (2, 1), (3, 2), (1, 3))  # w, h
L_SHAPES = ((1, 1, F(3, 2), 2), (F(2, 3), F(3, 5), F(7, 4), F(9, 5)),  # x1, y1, x2, y2
            (F(3, 4), F(2, 3), 2, F(5, 3)), (F(5, 4), F(4, 3), F(7, 3), F(5, 2)),
            (F(2, 5), F(3, 4), F(7, 5), F(7, 4)), (F(3, 5), F(5, 7), F(8, 5), F(12, 7)))
PARALLELOGRAMS = ((1, F(2, 3)), (1, F(1, 2)), (1, F(3, 2)), (F(3, 2), F(5, 4)),  # base, side
                  (1, F(5, 7)), (1, 3))


def _spec(name: str, angles, lengths) -> dict:
    sides = []
    for a, ln in zip(angles, lengths):
        rec = {"angle": str(a)}
        if ln is not None:
            rec["length"] = str(ln)
        sides.append(rec)
    return {"name": name, "sides": sides}


def expected_shape(angles) -> tuple[int, int]:
    """(images, genus) of the unfolding, from the interior angles alone."""
    fr = [F(a) for a in angles]
    n_lcm = lcm(*(a.denominator for a in fr))
    g = 1 + F(n_lcm, 2) * sum(F(a.numerator - 1, a.denominator) for a in fr)
    if g.denominator != 1:
        raise ValueError(f"angles {angles} give a non-integer genus {g}")
    return 2 * n_lcm, int(g)


def _small_inputs(rng: random.Random) -> list[tuple[str, dict | None, tuple, bool | None]]:
    """(label, spec, angles, DRPB expected) for the 19 small shapes."""
    out = []
    for w, h in RECTANGLES:
        s = rational_scale(rng)
        w, h = s * w, s * h
        angles = ("1/2",) * 4
        out.append(("rectangle", _spec(f"rectangle {w}x{h}", angles, (w, h, w, h)), angles, True))
    for shape in L_SHAPES:
        s = rational_scale(rng)
        x1, y1, x2, y2 = (s * v for v in shape)
        angles = ("1/2", "1/2", "3/2", "1/2", "1/2", "1/2")
        lengths = (x2, y1, x2 - x1, y2 - y1, x1, y2)
        out.append(("l-shape", _spec(f"L-shape {x1},{y1},{x2},{y2}", angles, lengths), angles, True))
    for b, a in PARALLELOGRAMS:
        s = rational_scale(rng)
        b, a = s * b, s * a
        angles = ("2/3", "1/3", "2/3", "1/3")
        out.append(("parallelogram", _spec(f"pi/3 parallelogram {b},{a}", angles, (b, a, b, a)), angles, True))
    s = rational_scale(rng)
    out.append(("equilateral", _spec("equilateral", ("1/3",) * 3, (s, s, s)), ("1/3",) * 3, None))
    angles = ("2/3", "1/3", "2/3", "1/3")
    out.append(("rhombus", _spec(f"rhombus {s}", angles, (s,) * 4), angles, True))
    out.append(("broken-parallelogram", None, BROKEN_ANGLES, None))
    return out


def _triangle_inputs(rng: random.Random, seed: int, index: int):
    """One triangle per rung.  The numerator a cycles through the rung's
    first A_CYCLE coprime values from a seeded offset: its cost varies up to
    twofold with a, so a whole number of cycles keeps every seed's work equal."""
    offsets = random.Random(f"classical:{seed}")
    out = []
    for n in TRIANGLE_LADDER:
        cycle = [a for a in range(1, n // 2) if gcd(a, n) == 1][:A_CYCLE]
        a = cycle[(index + offsets.randrange(A_CYCLE)) % len(cycle)]
        angles = (F(a, n), F(1, 2), F(1, 2) - F(a, n))
        spec = _spec(f"triangle {a}/{n}", angles, (rational_scale(rng), None, None))
        out.append((f"triangle-{n}", spec, angles, None))
    return out


def _analyze_op(label, spec, angles, drpb) -> Op:
    import polybilliard as pb

    images, g = expected_shape(angles)
    make = (lambda: pb.polygon_from_spec(spec)) if spec else pb.broken_parallelogram

    def run(tr):
        poly = tr.call("exactgeom.validate_polygon", make)
        mode = "exact_s" if poly.frame.exact else "float_s"
        epp = tr.call("unfold.build_epp", pb.build_epp, poly, attrs={"mode": mode})
        basis = tr.call("unfold.period_basis", pb.period_basis, epp, attrs={"mode": mode})
        lat = tr.call("lattice.period_lattice", pb.period_lattice, poly.frame, basis, attrs={"mode": mode})
        return len(epp.images), len(basis), lat.genus, lat.doubly_rational

    def check(out):
        got_images, got_periods, got_genus, got_drpb = out
        if got_images != images:
            return f"{label}: {got_images} images, expected {images}"
        if got_periods != 2 * g or got_genus != g:
            return f"{label}: {got_periods} periods (genus {got_genus}), expected genus {g}"
        if drpb is not None and got_drpb != drpb:
            return f"{label}: DRPB verdict {got_drpb}, expected {drpb}"
        return None

    return Op(label, run, check)


def _big_op() -> Op:
    import polybilliard as pb

    images, g = expected_shape(BIG_TRIANGLE)
    spec = _spec("rationalized right triangle", BIG_TRIANGLE, (1, None, None))

    def run(tr):
        poly = tr.call("exactgeom.validate_polygon", pb.polygon_from_spec, spec)
        mode = "exact_s" if poly.frame.exact else "float_s"
        epp = tr.call("unfold.build_epp", pb.build_epp, poly, attrs={"mode": mode})
        genus = pb.genus(poly)
        tr.count("unfold.genus", genus)
        return len(epp.images), genus

    def check(out):
        if out != (images, g):
            return f"right-triangle-2000: (images, genus) {out}, expected {(images, g)}"
        return None

    return Op("right-triangle-2000", run, check)


def make_pass(seed: int, index: int) -> list[Op]:
    rng = random.Random(f"classical:{seed}:{index}")
    ops = [_analyze_op(*inp) for inp in _small_inputs(rng) + _triangle_inputs(rng, seed, index)]
    ops.append(_big_op())
    rng.shuffle(ops)
    return ops


def warm_up() -> list[Op]:
    return [_analyze_op("rectangle", _spec("warm-up", ("1/2",) * 4, (1, 2, 1, 2)), ("1/2",) * 4, True)]
