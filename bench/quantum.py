"""`quantum` workload: spectra, waves and finite-difference checks.

The doubly-rational lattices (4 to 6 images) are built in set-up, so
`unfold` runs only there: the unit square and equilateral triangle, and
rectangles, L-shapes and pi/3 parallelograms of fixed side ratios.  Each
pass holds the same strata; the seed draws the shapes' scale, the energy
jitter, the sign prescription, the labels and the order:

* 10 spectrum ops (`spectrum` + `spectrum_csv`), three each at 60, 600 and
  6000 closed-form states and one at 60000 on the unit square (e_max ~ 1e5).
  The cutoff e_max is set from the lattice's state density, so cost does not
  follow the drawn scale;
* 10 wave ops: `enumerate_prescriptions`, `compile_swf`, `grid_csv`,
  `grid_pgm`, `verify_boundary` and `verify_helmholtz` on an 80x60 grid,
  with labels 1 <= m, n <= 4 and m != n (on the pi/3 family the Dirichlet
  wave with m = n vanishes identically, which its Helmholtz check rejects);
* 4 FD ops (`rasterize`, `fd_eigenvalues`, `compare_spectra`) on the unit
  square and the 1,1,2,2 L-shape, with n on both sides of 4000.

References are closed forms evaluated here, never the package's own:
E = pi^2/2 (m^2/a^2 + n^2/b^2) for rectangles and L-shapes (a, b the gcds
of the x and y sides) and E = (8/9) pi^2 p^2 (m^2 + n^2 - mn) for the pi/3
family (p = 1/gcd of the sides), over all integer pairs (m, n) != (0, 0).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction as F

from common import Op, rational_scale

STATES_LADDER = (60, 60, 60, 600, 600, 600, 6000, 6000, 6000, 60000)
WAVES = 10
GRID = (80, 60)
# (shape, 1 / spacing, kind): n = 1521 and 1633 unknowns take the dense
# LAPACK branch, 5041 and 6721 the sparse one
FD_CASES = (("square", 40, "lapack"), ("l-shape", 24, "lapack"), ("square", 72, "python"),
            ("l-shape", 48, "python"))
FD_COUNT = 20
FD_TOL = 0.02
REL = 1e-9


def _gcd(x: F, y: F) -> F:
    return F(math.gcd(x.numerator * y.denominator, y.numerator * x.denominator),
             x.denominator * y.denominator)


@dataclass
class ClosedForm:
    """Energies E(m, n) = scale * Q(m, n) with Q a positive binary form."""

    scale: float
    a: float  # Q = a m^2 + b n^2 + c m n
    b: float
    c: float
    prescriptions: int  # sign prescriptions of the pattern

    @property
    def density(self) -> float:
        """Label pairs per unit energy (area of the ellipse Q <= 1 / scale)."""
        return 2 * math.pi / math.sqrt(4 * self.a * self.b - self.c * self.c) / self.scale

    def levels(self, e_max: float) -> list[float]:
        """All E(m, n) <= e_max over integer pairs (m, n) != (0, 0), ascending."""
        cut = e_max * (1 + REL) / self.scale
        det = 4 * self.a * self.b - self.c * self.c
        m_reach = int(math.sqrt(4 * self.b * cut / det)) + 1
        out = []
        for m in range(-m_reach, m_reach + 1):
            # solve b n^2 + c m n + a m^2 - cut <= 0 for n
            disc = (self.c * m) ** 2 - 4 * self.b * (self.a * m * m - cut)
            if disc < 0:
                continue
            r = math.sqrt(disc)
            lo = math.floor((-self.c * m - r) / (2 * self.b)) - 1
            hi = math.ceil((-self.c * m + r) / (2 * self.b)) + 1
            for n in range(lo, hi + 1):
                q = self.a * m * m + self.b * n * n + self.c * m * n
                if (m or n) and q <= cut:
                    out.append(self.scale * q)
        out.sort()
        return out

    def holds(self, energy: float) -> bool:
        """Is `energy` one of the closed-form levels?"""
        levels = self.levels(energy * (1 + 1e-6))
        i = bisect_left(levels, energy * (1 - 1e-6))
        return i < len(levels) and abs(levels[i] - energy) <= 1e-9 * energy


def rectangle_form(a: F, b: F) -> ClosedForm:
    s = math.pi ** 2 / 2
    return ClosedForm(s, 1 / float(a) ** 2, 1 / float(b) ** 2, 0.0, 4)


def pi3_form(p: F) -> ClosedForm:
    return ClosedForm(8 / 9 * math.pi ** 2 * float(p) ** 2, 1.0, 1.0, -1.0, 2)


@dataclass
class Shape:
    label: str
    polygon: object
    epp: object
    lattice: object
    form: ClosedForm


def build_shapes(seed: int) -> list[Shape]:
    """The lattices every op draws from; built once, in set-up."""
    import polybilliard as pb

    rng = random.Random(f"quantum:{seed}")
    made = [("square", pb.square(), rectangle_form(F(1), F(1)))]
    for w, h in ((F(3, 2), F(2, 3)), (F(1), F(3, 4))):
        s = rational_scale(rng)
        made.append(("rectangle", pb.rectangle(s * w, s * h), rectangle_form(s * w, s * h)))
    for shape in ((F(1, 2), F(1, 3), F(1), F(1)), (F(1), F(1), F(2), F(3, 2))):
        s = rational_scale(rng)
        x1, y1, x2, y2 = (s * v for v in shape)
        made.append(("l-shape", pb.l_shape(x1, y1, x2, y2), rectangle_form(_gcd(x1, x2), _gcd(y1, y2))))
    for b, a in ((F(1), F(2, 3)), (F(1), F(3, 2))):
        s = rational_scale(rng)
        poly = pb.validate_polygon(["2/3", "1/3", "2/3", "1/3"], [s * b, s * a, s * b, s * a])
        made.append(("parallelogram", poly, pi3_form(1 / _gcd(s * b, s * a))))
    s = rational_scale(rng)
    made.append(("equilateral", pb.equilateral(s), pi3_form(1 / s)))
    shapes = []
    for label, poly, form in made:
        epp = pb.build_epp(poly)
        lat = pb.period_lattice(poly.frame, pb.period_basis(epp))
        shapes.append(Shape(label, poly, epp, lat, form))
    return shapes


def _spectrum_op(shape: Shape, states: int, jitter: float) -> Op:
    import polybilliard as pb

    e_max = states / shape.form.density * jitter
    reference = shape.form.levels(e_max)
    label = f"spectrum-{states}"

    def run(tr):
        entries = tr.call("quantize.spectrum", pb.spectrum, shape.lattice, e_max)
        csv = tr.call("quantize.spectrum_csv", pb.spectrum_csv, entries)
        return entries, csv

    def check(out):
        entries, csv = out
        got = sorted(e.energy for e in entries for _ in range(e.degeneracy))
        if len(got) != len(reference):
            return f"{label} on {shape.label}: {len(got)} states, closed form has {len(reference)}"
        for g, r in zip(got, reference):
            if abs(g - r) > REL * max(1.0, r):
                return f"{label} on {shape.label}: level {g!r} != closed form {r!r}"
        lines = csv.splitlines()
        if lines[0] != "level_index,m,n,kind,energy,degeneracy,flag" or len(lines) != len(entries) + 1:
            return f"{label} on {shape.label}: CSV has {len(lines)} lines for {len(entries)} levels"
        return None

    return Op(label, run, check)


def _wave_op(shape: Shape, pick: int, labels: tuple[int, int]) -> Op:
    import polybilliard as pb

    width, height = GRID
    m, n = labels

    def run(tr):
        found = tr.call("swf.enumerate_prescriptions", pb.enumerate_prescriptions, shape.epp)
        pres = found[pick % len(found)]
        momentum = pb.momentum_aperiodic(shape.lattice, m, n)
        psi = tr.call("swf.compile_swf", pb.compile_swf, shape.epp, pres, momentum)[0]
        csv = tr.call("swf.grid_csv", pb.grid_csv, psi, width, height)
        pgm = tr.call("swf.grid_pgm", pb.grid_pgm, psi, width, height)
        boundary = tr.call("swf.verify_boundary", pb.verify_boundary, psi, shape.polygon, pres)
        helm = tr.call("swf.verify_helmholtz", pb.verify_helmholtz, psi)
        return len(found), psi.energy, csv, pgm, boundary.passed, helm.passed

    def check(out):
        count, energy, csv, pgm, boundary_ok, helm_ok = out
        where = f"wave {labels} on {shape.label}"
        if count != shape.form.prescriptions:
            return f"{where}: {count} prescriptions, expected {shape.form.prescriptions}"
        if not shape.form.holds(energy):
            return f"{where}: energy {energy!r} is no closed-form level"
        if csv.count("\n") != width * height + 1:
            return f"{where}: CSV has {csv.count(chr(10))} lines"
        header = f"P5 {width} {height} 255\n".encode()
        if not pgm.startswith(header) or len(pgm) != len(header) + width * height:
            return f"{where}: malformed PGM"
        if not (boundary_ok and helm_ok):
            return f"{where}: boundary {boundary_ok}, Helmholtz {helm_ok}"
        return None

    return Op("wave", run, check)


def _fd_op(name: str, k: int, kind: str) -> Op:
    import polybilliard as pb

    poly = pb.square() if name == "square" else pb.l_shape(1, 1, 2, 2)
    h = 1.0 / k
    # Dirichlet product modes sin(m pi x) sin(n pi y) of the unit cells
    product = sorted(math.pi ** 2 / 2 * (i * i + j * j) for i in range(1, 40) for j in range(1, 40))
    label = f"fd-{name}-{k}"

    def run(tr):
        domain = tr.call("oracle.rasterize", pb.rasterize, poly, h)
        unknowns = domain.interior_count
        bucket = "n_le_4000.s" if unknowns <= 4000 else "n_gt_4000.s"
        levels = tr.call("oracle.fd_eigenvalues", pb.fd_eigenvalues, domain, FD_COUNT, attrs={"bucket": bucket})
        sem = [e for e in product if e <= float(levels[-1]) / (1 + FD_TOL)]
        report = tr.call("oracle.compare_spectra", pb.compare_spectra, sem, levels, FD_TOL)
        return [float(x) for x in levels], sem, report.passed

    def check(out):
        levels, sem, passed = out
        if len(levels) != FD_COUNT or levels != sorted(levels):
            return f"{label}: {len(levels)} levels, not {FD_COUNT} ascending"
        if not sem:
            return f"{label}: no product level below the numerical reach"
        for e in sem:
            i = bisect_left(levels, e)
            near = min(abs(levels[j] / e - 1) for j in (i - 1, i) if 0 <= j < len(levels))
            if near >= FD_TOL:
                return f"{label}: product level {e:.6g} has no FD level within {FD_TOL}"
        if not passed:
            return f"{label}: compare_spectra failed"
        return None

    return Op(label, run, check, kind)


def make_pass(shapes: list[Shape], seed: int, index: int) -> list[Op]:
    """Which lattice each op uses rotates with the pass index, not the seed:
    the cost of a spectrum or a wave follows the lattice's shape."""
    rng = random.Random(f"quantum:{seed}:{index}")
    ops = []
    for j, states in enumerate(STATES_LADDER):
        # the 60000-state rung always runs on the unit square (e_max ~ 1e5)
        shape = shapes[0] if states == max(STATES_LADDER) else shapes[(index + j) % len(shapes)]
        ops.append(_spectrum_op(shape, states, rng.uniform(0.95, 1.05)))
    for j in range(WAVES):
        m, n = rng.sample(range(1, 5), 2)
        ops.append(_wave_op(shapes[(index + j) % len(shapes)], rng.randrange(4), (m, n)))
    ops += [_fd_op(*case) for case in FD_CASES]
    rng.shuffle(ops)
    return ops


def warm_up(shapes: list[Shape]) -> list[Op]:
    return [
        _spectrum_op(shapes[0], 600, 1.0),
        _wave_op(shapes[0], 0, (1, 2)),
        _fd_op(*FD_CASES[0]),
        _fd_op(*FD_CASES[2]),
    ]
