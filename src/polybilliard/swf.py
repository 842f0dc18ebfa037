"""Plane-wave eigenfunctions assembled over an unfolded pattern.

A quantized momentum turns every image of the base polygon into one plane
wave: the image's isometry rotates (or reflects) the momentum and its
translation contributes a constant phase.  Choosing signs for the images that
are consistent across every edge identification yields a coherent sum which
satisfies Dirichlet conditions on the edges whose sign pairs are opposite and
Neumann conditions where they agree.  Not every mixing of the two exists: a
set of sides can be Dirichlet exactly when every closed cycle of the glued
pattern crosses them an even number of times (`enumerate_prescriptions`).
The sum solves the Helmholtz equation exactly — all component momenta share
one norm — so verification amounts to boundary residuals and bookkeeping, not
PDE solving.

An `SWF` is one of four read-outs of that sum: its two sign branches (+1 and
-1, complex conjugates of each other) or its two real combinations ("cos" and
"sin", the real and imaginary parts of the +1 branch).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateCombination,
    MomentumMismatch,
    SymmetryNotAutomorphism,
    UnquantizedMomentum,
    _refuse_past_memory,
)
from .exactgeom import DIRICHLET, NEUMANN, Polygon
from .quantize import _momentum_vector
from .unfold import EPP, _half_plane

__all__ = [
    "SignPrescription",
    "PlaneWaveTerm",
    "SWF",
    "BoundaryReport",
    "HelmholtzReport",
    "enumerate_prescriptions",
    "compile_swf",
    "real_combinations",
    "evaluate",
    "verify_boundary",
    "verify_helmholtz",
    "symmetry_probe",
    "grid_csv",
    "grid_pgm",
]

_REL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SignPrescription:
    """Signs for the pattern images, consistent across every edge class.

    eta[k-1] is the sign of image k (image 1 fixed to +1); bc[s] is the
    boundary condition the prescription induces on base-polygon edge s:
    opposite signs across all copies of the edge give Dirichlet, equal signs
    give Neumann.  A `bc` exists only when every closed cycle of the glued
    pattern crosses its Dirichlet sides an even number of times.
    """

    eta: tuple[int, ...]
    bc: tuple[str, ...]

    @property
    def label(self) -> str:
        kinds = set(self.bc)
        if kinds == {DIRICHLET}:
            return DIRICHLET
        if kinds == {NEUMANN}:
            return NEUMANN
        return "mixed"


@dataclass(frozen=True, eq=False)
class PlaneWaveTerm:
    eta: int
    alpha: float
    p: complex


@dataclass(frozen=True, eq=False)
class SWF:
    """One read-out of the image sum S_s(z) = sum_k eta_k exp(s*i*(alpha_k + p_k . z)).

    `readout` +1 or -1 selects the sign branch S_s (S_-1 is the conjugate of
    S_+1); "cos" and "sin" select Re S_+1 and Im S_+1, the branches' mean and
    their difference over 2i.  `degenerate` marks a real read-out that
    vanishes identically (`real_combinations`).
    """

    terms: tuple[PlaneWaveTerm, ...]
    energy: float
    readout: int | str  # +1 | -1 | "cos" | "sin"
    polygon: Polygon = field(repr=False)
    degenerate: bool = False


@dataclass(frozen=True, eq=False)
class BoundaryReport:
    entries: tuple[tuple[int, str, float], ...]  # (side, bc, residual)
    max_residual: float
    tol: float
    passed: bool


@dataclass(frozen=True, eq=False)
class HelmholtzReport:
    norm_spread: float
    max_residual: float
    bound: float
    passed: bool


def enumerate_prescriptions(epp: EPP) -> list[SignPrescription]:
    """All consistent sign prescriptions of the pattern, image 1 positive.

    A set of base sides can be Dirichlet, the rest Neumann, exactly when
    every closed cycle of the glued pattern crosses those sides an even
    number of times.  The cycles are spanned by one per gluing: across it,
    then back through the face tree (`EPP.face_tree`), the list of the
    gluings that created the images: each image's creating gluing runs from
    its parent, an earlier image.  Each image's sign is then -1 to the
    number of Dirichlet sides its tree path from image 1 crosses.  Returned
    all-Dirichlet first and all-Neumann last.
    """
    n = epp.polygon.n
    # at k - 1, the bit set of the sides image k's tree path crosses an odd number of times
    crossed = [0]
    for cid in epp.face_tree[1:]:
        parent, _b, s, _t = epp.gluings[cid]
        crossed.append(crossed[parent - 1] ^ 1 << s)
    cycles = {crossed[a - 1] ^ crossed[b - 1] ^ (1 << s) for a, b, s, _t in epp.gluings}
    found: list[SignPrescription] = []
    for mask in range(2**n):  # bit set -> Dirichlet on that side
        if any((c & mask).bit_count() & 1 for c in cycles):
            continue
        eta = tuple(-1 if (c & mask).bit_count() & 1 else 1 for c in crossed)
        bc = tuple(DIRICHLET if mask >> s & 1 else NEUMANN for s in range(n))
        found.append(SignPrescription(eta=eta, bc=bc))
    found.sort(key=lambda pr: (pr.bc.count(NEUMANN), pr.bc))
    return found


def compile_swf(
    epp: EPP, prescription: SignPrescription, momentum
) -> tuple[SWF, SWF]:
    """Build the two sign branches of the image sum for one momentum.

    Every image contributes the plane wave with the rotated/reflected
    momentum p_k and the constant phase p . t_k from its translation part.
    The momentum must fit the pattern: an integer number of its wavelengths
    along every period, otherwise the sum is not single-valued and
    UnquantizedMomentum is raised.
    """
    p = _momentum_vector(momentum)
    f = epp.polygon.frame
    for _a, _b, _s, t in epp.gluings:
        if not t:
            continue
        # -t fits -turns wavelengths: the test takes t unsigned, the message signed
        turns = ((p.conjugate() * f.to_complex(t)).real) / (2 * math.pi)
        if abs(turns - round(turns)) > _REL_TOL * max(1.0, abs(turns)):
            t = f.to_complex(_half_plane(f, t))
            turns = ((p.conjugate() * t).real) / (2 * math.pi)
            raise UnquantizedMomentum(
                f"momentum fits {turns:.6g} wavelengths (not an integer) "
                f"into the period {t:.6g}"
            )
    terms = []
    for (reflecting, rotation, t), eta in zip(epp.images, prescription.eta):
        angle = math.pi * rotation / f.N
        omega = complex(math.cos(angle), math.sin(angle))
        t = f.to_complex(t)
        pk = p.conjugate() * omega if reflecting else p * omega.conjugate()
        alpha = (p.conjugate() * t).real
        terms.append(PlaneWaveTerm(eta=eta, alpha=alpha, p=pk))
    terms = tuple(terms)
    energy = 0.5 * abs(p) ** 2
    return (
        SWF(terms=terms, energy=energy, readout=+1, polygon=epp.polygon),
        SWF(terms=terms, energy=energy, readout=-1, polygon=epp.polygon),
    )


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points)
    if pts.dtype.kind != "c":
        if pts.ndim >= 2 and pts.shape[-1] == 2:
            pts = pts[..., 0] + 1j * pts[..., 1]
        else:
            pts = pts.astype(complex)
    return pts


def _term_waves(swf: SWF, points):
    """Each term's momentum p_k and wave eta_k exp(s*i*(alpha_k + p_k . z)),
    s = -1 only for the -1 read-out.  The sign stays in the exponent:
    conjugating the +1 waves would flip the sign of exact zeros."""
    pts = _as_points(points)
    x, y = pts.real, pts.imag
    s = -1 if swf.readout == -1 else 1
    for term in swf.terms:
        yield term.p, term.eta * np.exp(1j * s * (term.alpha + term.p.real * x + term.p.imag * y))


def _read(swf: SWF, total: np.ndarray) -> np.ndarray:
    if swf.readout == "cos":
        return total.real
    if swf.readout == "sin":
        return total.imag
    return total


def evaluate(swf: SWF, points) -> np.ndarray:
    """Values of the wave function at the given points (complex or (x, y))."""
    return _read(swf, sum(wave for _p, wave in _term_waves(swf, points)))


def _gradient(swf: SWF, points) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient (dPsi/dx, dPsi/dy) of the plane-wave sum."""
    ds = 1j * (-1 if swf.readout == -1 else 1)
    gx = gy = 0j
    for p, wave in _term_waves(swf, points):
        d = ds * wave
        gx = gx + p.real * d
        gy = gy + p.imag * d
    return _read(swf, gx), _read(swf, gy)


def _point_in_polygon(px: np.ndarray, py: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Even-odd rule; callers keep query points away from the boundary."""
    inside = np.zeros(px.shape, dtype=bool)
    vx, vy = verts.real, verts.imag
    n = len(verts)
    for k in range(n):
        x1, y1 = vx[k], vy[k]
        x2, y2 = vx[(k + 1) % n], vy[(k + 1) % n]
        straddles = (y1 > py) != (y2 > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xcross = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
        inside ^= straddles & (px < xcross)
    return inside


def _interior_points(polygon: Polygon, count: int, seed: int) -> np.ndarray:
    """The first `count` uniform draws over the bounding box that fall inside."""
    verts = np.asarray(polygon.vertices_float())
    lo = [verts.real.min(), verts.imag.min()]
    hi = [verts.real.max(), verts.imag.max()]
    rng = np.random.default_rng(seed)
    pts = np.empty(0, dtype=complex)
    while len(pts) < count:
        xy = rng.uniform(lo, hi, size=(count, 2))
        z = xy[:, 0] + 1j * xy[:, 1]
        pts = np.concatenate([pts, z[_point_in_polygon(z.real, z.imag, verts)]])
    return pts[:count]


def real_combinations(swf_pair: tuple[SWF, SWF]) -> tuple[SWF, SWF]:
    """The two real read-outs of the +1 sum: its real part (cos, the
    branches' mean) and its imaginary part (sin, their difference over 2i).

    When the branches are already proportional one of the combinations
    vanishes identically; that one is returned with its degenerate flag set.
    If both vanish (the whole image sum is zero for this momentum) there is
    nothing to keep and DegenerateCombination is raised.
    """
    plus, minus = swf_pair
    if plus.readout != +1 or minus.readout != -1 or plus.terms is not minus.terms:
        raise ValueError("expected the ± pair produced by compile_swf")
    probe = evaluate(plus, _interior_points(plus.polygon, 64, seed=12345))
    vc, vs = float(np.max(np.abs(probe.real))), float(np.max(np.abs(probe.imag)))
    scale = 2 * len(plus.terms)
    if vc <= 1e-10 * scale and vs <= 1e-10 * scale:
        raise DegenerateCombination(
            "both real combinations vanish identically for this momentum"
        )
    cos_f = replace(plus, readout="cos", degenerate=vc <= 1e-10 * max(vs, 1e-30))
    sin_flat = not cos_f.degenerate and vs <= 1e-10 * max(vc, 1e-30)
    return cos_f, replace(plus, readout="sin", degenerate=sin_flat)


def verify_boundary(
    swf,
    polygon: Polygon,
    prescription: SignPrescription,
    samples_per_edge: int = 1000,
    tol: float = 1e-9,
) -> BoundaryReport:
    """Residuals on every edge: |Psi| where Dirichlet is induced, |dPsi/dn|
    where Neumann is (normal derivative taken analytically).  A count whose
    complex sample points alone outrun physical memory raises OutOfRange."""
    _refuse_past_memory(samples_per_edge, 16, f"{samples_per_edge} samples per edge are more")
    verts = polygon.vertices_float()
    n = polygon.n
    ts = (np.arange(samples_per_edge) + 0.5) / samples_per_edge
    entries = []
    worst = 0.0
    for s in range(n):
        a, b = verts[s], verts[(s + 1) % n]
        pts = a + ts * (b - a)
        if prescription.bc[s] == DIRICHLET:
            res = float(np.max(np.abs(evaluate(swf, pts))))
        else:
            d = (b - a) / abs(b - a)
            normal = complex(d.imag, -d.real)  # outward for ccw order
            gx, gy = _gradient(swf, pts)
            res = float(np.max(np.abs(gx * normal.real + gy * normal.imag)))
        entries.append((s, prescription.bc[s], res))
        worst = max(worst, res)
    return BoundaryReport(
        entries=tuple(entries), max_residual=worst, tol=tol, passed=worst < tol
    )


def verify_helmholtz(swf, samples: int = 100, seed: int = 2) -> HelmholtzReport:
    """Check the wave really solves the Helmholtz equation at its energy.

    All term momenta must share one norm (raises MomentumMismatch) — that
    already implies the equation holds exactly; a finite-difference Laplacian
    at random interior points guards the implementation itself.
    """
    norms = [abs(t.p) for t in swf.terms]
    ref = norms[0]
    spread = max(abs(nm - ref) for nm in norms) / max(ref, 1e-30)
    if spread > 1e-12:
        raise MomentumMismatch(
            f"plane-wave norms differ by {spread:.3g} relative; "
            "the sum is not a fixed-energy solution"
        )
    e = swf.energy
    h = 1e-4 * 2 * math.pi / math.sqrt(2 * e)
    pts = _interior_points(swf.polygon, samples, seed=seed)
    # keep the whole stencil inside the polygon
    verts = np.asarray(swf.polygon.vertices_float())
    keep = np.ones(pts.shape, dtype=bool)
    for off in (h, -h, 1j * h, -1j * h):
        moved = pts + off
        keep &= _point_in_polygon(moved.real, moved.imag, verts)
    pts = pts[keep] if keep.any() else pts[:1]
    center = evaluate(swf, pts)
    lap = (
        evaluate(swf, pts + h)
        + evaluate(swf, pts - h)
        + evaluate(swf, pts + 1j * h)
        + evaluate(swf, pts - 1j * h)
        - 4 * center
    ) / h**2
    residual = float(np.max(np.abs(lap + 2 * e * center)))
    bound = 1e-6 * e * float(max(np.max(np.abs(center)), 1e-30))
    return HelmholtzReport(
        norm_spread=spread,
        max_residual=residual,
        bound=bound,
        passed=residual < bound,
    )


def symmetry_probe(swf, symmetry, samples: int = 200, tol: float = 1e-9) -> str:
    """Classify the wave as even, odd, or neither under a reflection map.

    `symmetry` is a map z -> z' (complex to complex) that must send the
    polygon onto itself; vertex images are checked against the vertex set
    first and SymmetryNotAutomorphism is raised on mismatch.
    """
    verts = swf.polygon.vertices_float()
    scale = max(abs(v) for v in verts) or 1.0
    for v in verts:
        w = symmetry(v)
        if min(abs(w - u) for u in verts) > 1e-9 * max(1.0, scale):
            raise SymmetryNotAutomorphism(
                f"vertex {v:.6g} maps to {w:.6g}, not a polygon vertex"
            )
    pts = _interior_points(swf.polygon, samples, seed=7)
    mapped = np.array([symmetry(z) for z in pts])
    v0 = evaluate(swf, pts)
    v1 = evaluate(swf, mapped)
    amp = float(np.max(np.abs(v0)))
    if amp <= 1e-30:
        return "even"
    if float(np.max(np.abs(v1 - v0))) <= tol * amp:
        return "even"
    if float(np.max(np.abs(v1 + v0))) <= tol * amp:
        return "odd"
    return "none"


@lru_cache(maxsize=1)
def _sample_grid(swf, width: int, height: int):
    """Grid axes over the bounding box, the wave on the whole grid (one
    row per y, bottom row first, zeroed outside the polygon) and the
    inside mask.  One point-in-polygon test and one evaluation cover every
    point.  The last sample is kept, so `grid_csv` and `grid_pgm` of one
    wave and grid sample it once.  A grid whose complex samples alone
    outrun physical memory raises OutOfRange before any is taken."""
    _refuse_past_memory(width * height, 16, f"a {width}x{height} grid holds more samples")
    verts = np.asarray(swf.polygon.vertices_float())
    gx = np.linspace(verts.real.min(), verts.real.max(), width)
    gy = np.linspace(verts.imag.min(), verts.imag.max(), height)
    px = np.broadcast_to(gx, (height, width))
    py = np.broadcast_to(gy[:, None], (height, width))
    inside = _point_in_polygon(px, py, verts)
    vals = np.where(inside, evaluate(swf, px + 1j * py), 0.0)
    return gx, gy, vals, inside


def grid_csv(swf, width: int, height: int) -> str:
    """CSV dump x,y,re,im,abs2 on the bounding grid, bottom row first.

    Each x and each y is formatted once, and the sample becomes Python
    numbers one row at a time; a point outside the polygon is an exact zero
    and writes the constant tail `0,0,0`."""
    gx, gy, vals, inside = _sample_grid(swf, width, height)
    xs = [f"{x:.12g}," for x in gx.tolist()]
    out = ["x,y,re,im,abs2\n"]
    for y, row, row_inside in zip(gy.tolist(), vals, inside):
        ys = f"{y:.12g},"
        zero = ys + "0,0,0\n"
        for x, v, point_inside in zip(xs, row.tolist(), row_inside.tolist()):
            if point_inside:
                out.append("%s%s%.12g,%.12g,%.12g\n" % (x, ys, v.real, v.imag, abs(v) ** 2))
            else:
                out.append(x + zero)
    return "".join(out)


def grid_pgm(swf, width: int, height: int) -> bytes:
    """8-bit PGM of |Psi|^2 on the bounding grid, outside pixels zeroed;
    it reuses the sample of a `grid_csv` call on the same wave and grid."""
    _gx, _gy, vals, _inside = _sample_grid(swf, width, height)
    img = (np.abs(vals) ** 2)[::-1]  # top row first in the file
    peak = img.max() or 1.0
    data = np.clip(img / peak * 255, 0, 255).astype(np.uint8)
    header = f"P5 {width} {height} 255\n".encode()
    return header + data.tobytes()
