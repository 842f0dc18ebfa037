"""Finite-difference verification of billiard spectra.

Everything here is deliberately independent of the lattice machinery: the
polygon is rasterized onto a square grid, the Laplacian is discretized with
the classic 5-point stencil, and eigenvalues of -(1/2)*Laplacian are computed
numerically so they can be compared against closed-form spectra.

Dirichlet sides drop the boundary nodes (value pinned to zero); Neumann sides
keep their boundary nodes and use mirror ghosts.  The mirror scheme is
symmetrized in finite-volume form: boundary nodes carry fractional cell
masses (1/2 on a flat side, 1/4 at a convex corner) and the stiffness matrix
simply omits the outward link, which reproduces the ghost-point equations on
straight sides while keeping the generalized problem symmetric.  A node whose
cell has no mass inside the polygon, at a sharp corner, has no face inside it
either, so the operator leaves it out, as embedded-boundary schemes drop cells
of no volume.

Energies follow the package convention E = |p|^2 / 2, so the solver returns
eigenvalues of -(1/2)*Laplacian and numbers compare directly with the
closed-form spectra elsewhere in the package.

The deformation study squeezes a broken rectangle's bottom bay by a
piecewise linear shift whose bounds are known in closed form, so
`deform_domain` returns them as exact Fractions instead of sampling them;
corners and sizes are exact Fractions throughout, never rounded guesses.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConvergenceFailure, OutOfRange, TooCoarse, _refuse_past_memory
from .exactgeom import DIRICHLET, NEUMANN
from .shapes import l_shape
from .swf import _point_in_polygon

_TOL = 1e-9
_DENSE_LIMIT = 4000
# bytes per grid node of the arrays `rasterize` returns: four float quadrant
# masks, the float Dirichlet flux and the bool mask.  Its peak, temporaries
# included, is about 64 B per node as tracemalloc counts it, so a grid this
# figure refuses could not have been held
_RASTER_NODE_BYTES = 4 * 8 + 8 + 1
# bytes that `_operator` takes at its peak, as tracemalloc counts it: about
# 35 per grid node for its grid-shaped temporaries, and 290 to 340 per
# unknown for the triplets and CSC arrays of about five entries each.  The
# refusal counts every mask node as an unknown; the few massless ones it
# leaves out cost less than that slack
_OPERATOR_NODE_BYTES = 32
_OPERATOR_UNKNOWN_BYTES = 256


# --------------------------------------------------------------------------
# geometry helpers (vectorized, float-only on purpose)


def _vertex_array(polygon) -> np.ndarray:
    return np.asarray(polygon.vertices_float(), dtype=complex)


def _side_distance(px: np.ndarray, py: np.ndarray, a: complex, b: complex) -> np.ndarray:
    """Distance from each point to the segment from a to b, shaped like px."""
    dx, dy = b.real - a.real, b.imag - a.imag
    length2 = dx * dx + dy * dy
    t = ((px - a.real) * dx + (py - a.imag) * dy) / length2
    t = np.clip(t, 0.0, 1.0)
    return np.hypot(px - (a.real + t * dx), py - (a.imag + t * dy))


def _nearest_side(px: np.ndarray, py: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Index of the polygon side nearest each point, the first on a tie."""
    n = len(verts)
    dist = np.stack([_side_distance(px, py, verts[k], verts[(k + 1) % n]) for k in range(n)], axis=-1)
    return np.argmin(dist, axis=-1)


# --------------------------------------------------------------------------
# raster domain


@dataclass(frozen=True, eq=False)
class GridDomain:
    """Rasterized polygon: unknown-node mask plus boundary metadata.

    ``mask`` marks the nodes strictly inside the polygon plus nodes sitting
    on Neumann-only boundary; those of positive mass are the solver
    unknowns.  ``quadrants[sy, sx]`` tells whether the cell quadrant offset
    by (sx*h/2, sy*h/2) from each node lies inside the polygon; grid faces
    inherit their flux coefficients from the two quadrants they separate,
    and cell masses are the quadrant averages.
    ``dirichlet_flux`` accumulates, per unknown, the face coefficients of
    neighbours pinned to zero by a Dirichlet side.
    """

    h: float
    mask: np.ndarray
    quadrants: np.ndarray
    dirichlet_flux: np.ndarray
    bc: tuple[str, ...]

    @property
    def interior_count(self) -> int:
        return int(self.mask.sum())

    @property
    def weight(self) -> np.ndarray:
        return self.quadrants.mean(axis=(0, 1))

    def face_coefficients(self, di: int, dj: int) -> np.ndarray:
        """Flux coefficient of each node's face toward (di, dj)."""
        sx = (1 + di) // 2 if di else None
        if di:
            return 0.5 * (self.quadrants[0, sx] + self.quadrants[1, sx])
        sy = (1 + dj) // 2
        return 0.5 * (self.quadrants[sy, 0] + self.quadrants[sy, 1])


def _normalize_bc(polygon, bc_map) -> tuple[str, ...]:
    n = polygon.n
    if bc_map is None:
        return (DIRICHLET,) * n
    if isinstance(bc_map, str):
        bc_map = (bc_map,) * n
    bc = tuple(bc_map)
    if len(bc) != n or any(b not in (DIRICHLET, NEUMANN) for b in bc):
        raise OutOfRange(f"bc_map must give '{DIRICHLET}' or '{NEUMANN}' per side")
    return bc


def rasterize(polygon, h: float, bc_map=None) -> GridDomain:
    """Sample the polygon on a grid of spacing ``h`` aligned to multiples of h.

    A grid whose nodes, at the `_RASTER_NODE_BYTES` each that the returned
    arrays take, outrun memory raises OutOfRange before any node is placed.
    Boundary tests run one side at a time, so the grid's temporaries never
    grow with the number of sides.
    """
    h = float(h)  # a Fraction would make object arrays and miss the :g format
    bc = _normalize_bc(polygon, bc_map)
    verts = _vertex_array(polygon)
    edges = np.abs(np.roll(verts, -1) - verts)
    if h <= 0:
        raise OutOfRange("grid spacing must be positive")
    if h > float(edges.min()) / 8 + _TOL:
        raise TooCoarse(
            f"h={h} exceeds one eighth of the shortest side {edges.min():.6g}"
        )

    xmin, xmax = verts.real.min(), verts.real.max()
    ymin, ymax = verts.imag.min(), verts.imag.max()
    i0 = math.floor(xmin / h + _TOL)
    j0 = math.floor(ymin / h + _TOL)
    nx = math.ceil(xmax / h - _TOL) - i0 + 1
    ny = math.ceil(ymax / h - _TOL) - j0 + 1
    _refuse_past_memory(
        nx * ny, _RASTER_NODE_BYTES, f"spacing {h:g} puts more grid nodes on the polygon"
    )

    # node coordinates as broadcast views of one row and one column
    shape = (ny, nx)
    xs = (np.arange(nx) + i0) * h
    ys = ((np.arange(ny) + j0) * h)[:, None]
    px, py = np.broadcast_to(xs, shape), np.broadcast_to(ys, shape)

    # one side at a time, so no (ny, nx, sides) array of distances is held
    on_boundary = np.zeros(shape, dtype=bool)
    touches_dirichlet = np.zeros(shape, dtype=bool)
    n = len(verts)
    for side, tag in enumerate(bc):
        near = _side_distance(px, py, verts[side], verts[(side + 1) % n]) <= _TOL
        on_boundary |= near
        if tag == DIRICHLET:
            touches_dirichlet |= near
    only_neumann = on_boundary & ~touches_dirichlet
    strict_inside = ~on_boundary & _point_in_polygon(px, py, verts)
    mask = strict_inside | only_neumann

    # quadrant-midpoint insideness drives both masses and face coefficients
    quadrants = np.zeros((2, 2) + shape)
    for sy, oy in ((0, -0.5), (1, 0.5)):
        for sx, ox in ((0, -0.5), (1, 0.5)):
            qx, qy = np.broadcast_to(xs + ox * h, shape), np.broadcast_to(ys + oy * h, shape)
            quadrants[sy, sx] = _point_in_polygon(qx, qy, verts)

    # accumulate flux toward Dirichlet-pinned missing neighbours; other
    # missing links are Neumann (zero flux) and simply dropped.  Dirichlet
    # faces always act at full strength: a wall cutting closer than h/2 to
    # the node column must not fade out of the operator.
    pad_mask = np.pad(mask, 1, constant_values=False)
    pad_dir = np.pad(touches_dirichlet & ~mask, 1, constant_values=False)
    dflux = np.zeros(shape)
    for dj, di in ((0, 1), (0, -1), (1, 0), (-1, 0)):
        nb_mask = pad_mask[1 + dj : 1 + dj + ny, 1 + di : 1 + di + nx]
        nb_dir = pad_dir[1 + dj : 1 + dj + ny, 1 + di : 1 + di + nx]
        missing = mask & ~nb_mask
        # neighbour nodes pinned by a Dirichlet side contribute a zero value
        pinned = missing & nb_dir
        dflux[pinned] += 1.0
        # staircase faces with no node on the boundary: tag by nearest edge
        open_face = missing & ~nb_dir
        if open_face.any():
            mx = px[open_face] + 0.5 * di * h
            my = py[open_face] + 0.5 * dj * h
            nearest = _nearest_side(mx, my, verts)
            is_d = np.array([bc[s] == DIRICHLET for s in nearest], dtype=float)
            dflux[open_face] += is_d
    return GridDomain(h=h, mask=mask, quadrants=quadrants, dirichlet_flux=dflux, bc=bc)


# --------------------------------------------------------------------------
# eigensolver


def _operator(domain: GridDomain):
    """The symmetrized FD operator M^(-1/2)·K·M^(-1/2)/(2h²), as a CSC matrix.

    K is the 5-point stiffness: each unknown's diagonal is its Dirichlet
    flux plus its linked face coefficients, and each link is -coefficient.
    M holds the cell masses.  Its unknowns are the mask's nodes of positive
    mass: a node whose four cell corners all lie outside the polygon has no
    face inside it either, so it would be an isolated row of mass zero that
    no solver can take.  A grid whose nodes and unknowns, at the
    `_OPERATOR_NODE_BYTES` and `_OPERATOR_UNKNOWN_BYTES` each that building
    takes, outrun memory raises OutOfRange first.
    """
    import scipy.sparse

    h = domain.h
    _refuse_past_memory(
        domain.mask.size * _OPERATOR_NODE_BYTES + domain.interior_count * _OPERATOR_UNKNOWN_BYTES,
        1, f"spacing {h:g} builds an FD operator larger",
    )
    ny, nx = domain.mask.shape
    weight = domain.weight
    unknown = domain.mask & (weight > 0)
    n = int(unknown.sum())
    idx = np.full(unknown.shape, -1, dtype=np.int64)
    idx[unknown] = np.arange(n)

    diag = domain.dirichlet_flux[unknown]
    rows, cols, vals = [np.arange(n)], [np.arange(n)], [diag]
    pad_idx = np.pad(idx, 1, constant_values=-1)
    for dj, di in ((0, 1), (0, -1), (1, 0), (-1, 0)):
        nb = pad_idx[1 + dj : 1 + dj + ny, 1 + di : 1 + di + nx]
        coef = domain.face_coefficients(di, dj)
        linked = unknown & (nb >= 0) & (coef > 0)
        row, c = idx[linked], coef[linked]
        # each unknown has one face per direction, so no index repeats here
        diag[row] += c
        rows.append(row)
        cols.append(nb[linked])
        vals.append(-c)
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    scale = 1.0 / np.sqrt(weight[unknown])
    # times the reciprocal of 2h², as scipy divides a sparse matrix by a
    # scalar: the pinned levels carry that rounding
    vals = scale[rows] * vals * scale[cols] * (1 / (2.0 * h * h))
    return scipy.sparse.csc_matrix((vals, (rows, cols)), shape=(n, n))


def fd_eigenvalues(domain: GridDomain, count: int) -> np.ndarray:
    """Lowest ``count`` eigenvalues of -(1/2)*Laplacian on the raster domain.

    The unknowns are those of `_operator`: the mask's nodes of positive
    mass, for a node with none has no face inside the polygon.  Up to
    `_DENSE_LIMIT` unknowns LAPACK's dense `eigh` solves the operator; above
    it, shift-invert Lanczos (ARPACK's `eigsh` at sigma = 0) runs on one
    sparse LU factor of the operator, its columns ordered by minimum degree
    on the symmetric pattern.  The two branches agree to about 1e-14
    relative on the same operator, so levels above the limit carry that
    solver roundoff in their trailing digits.  ARPACK giving up raises
    ConvergenceFailure.  An LU factor that cannot be allocated, a
    MemoryError or SuperLU's RuntimeError from a failed SUPERLU_MALLOC,
    raises OutOfRange; its fill is not counted before it is factored.
    """
    # scipy loads here, not with the module: `verify --against` solves nothing
    import scipy.linalg
    import scipy.sparse.linalg

    op = _operator(domain)
    n = op.shape[0]
    if count < 1 or count > n // 4:
        raise OutOfRange(
            f"count={count} outside 1..{n // 4} for {n} unknowns"
        )
    if n <= _DENSE_LIMIT:
        _refuse_past_memory(
            n * n, 8, f"spacing {domain.h:g} puts more unknowns into the dense eigensolver"
        )
        # LAPACK reads a Fortran-ordered array in place, so eigh makes no copy
        vals = scipy.linalg.eigh(
            op.toarray(order="F"), eigvals_only=True, subset_by_index=(0, count - 1),
            overwrite_a=True, check_finite=False,
        )
        return np.asarray(vals)
    # eigsh's own shift-invert factor orders columns by COLAMD, made for
    # unsymmetric matrices; a minimum-degree ordering of the symmetric
    # pattern leaves about half its fill, so each Lanczos solve costs half
    try:
        lu = scipy.sparse.linalg.splu(op, permc_spec="MMD_AT_PLUS_A")
    except (MemoryError, RuntimeError) as exc:
        # SuperLU reports an allocation it could not make as a RuntimeError
        if isinstance(exc, RuntimeError) and not str(exc).startswith("SUPERLU_MALLOC"):
            raise
        raise OutOfRange(
            f"spacing {domain.h:g} puts {n} unknowns into a sparse LU factor"
            " larger than memory can hold"
        ) from exc
    op_inv = scipy.sparse.linalg.LinearOperator((n, n), matvec=lu.solve, dtype=op.dtype)
    v0 = np.full(n, 1.0 / math.sqrt(n))
    try:
        vals = scipy.sparse.linalg.eigsh(
            op, k=count, sigma=0.0, which="LM", v0=v0, OPinv=op_inv,
            return_eigenvectors=False,
        )
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return np.sort(vals)


def richardson_order(coarse: float, mid: float, fine: float) -> float:
    """Empirical convergence order from three h-halved samples."""
    return math.log2(abs(coarse - mid) / abs(mid - fine))


# --------------------------------------------------------------------------
# spectrum comparison


@dataclass(frozen=True, eq=False)
class MatchReport:
    pairs: tuple[tuple[float, float, float, int], ...]
    max_rel_err: float
    mean_rel_err: float
    unmatched_fraction: float
    rel_tol: float
    passed: bool


def compare_spectra(semiclassical, numerical, rel_tol: float) -> MatchReport:
    """Match each closed-form level to its nearest numerical neighbour.

    Both inputs are expected ascending.  The unmatched fraction counts
    numerical levels never chosen as a nearest neighbour — the measure of
    how incomplete the closed-form family is.  Closed-form levels with an
    empty numerical spectrum raise OutOfRange: they have no neighbour.
    """
    sem = np.asarray(list(semiclassical), dtype=float)
    num = np.asarray(list(numerical), dtype=float)
    if len(sem) and not len(num):
        raise OutOfRange("the numerical spectrum is empty: no level to match")
    pairs = []
    used: set[int] = set()
    for s in sem:
        pos = int(np.searchsorted(num, s))
        best = min(
            (i for i in (pos - 1, pos) if 0 <= i < len(num)),
            key=lambda i: abs(num[i] - s),
        )
        used.add(best)
        pairs.append((float(s), float(num[best]), abs(num[best] / s - 1.0), best))
    errs = np.array([p[2] for p in pairs]) if pairs else np.zeros(0)
    return MatchReport(
        pairs=tuple(pairs),
        max_rel_err=float(errs.max()) if len(errs) else 0.0,
        mean_rel_err=float(errs.mean()) if len(errs) else 0.0,
        unmatched_fraction=1.0 - len(used) / len(num) if len(num) else 0.0,
        rel_tol=rel_tol,
        passed=bool(len(errs) == 0 or errs.max() < rel_tol),
    )


def report_csv(report: MatchReport) -> str:
    lines = ["level_index,numerical_e,semiclassical_e,rel_error"]
    for sem, num, err, index in report.pairs:
        lines.append(f"{index},{num:.12g},{sem:.12g},{err:.12g}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# domain deformation experiments


@dataclass(frozen=True, eq=False)
class DeformationBounds:
    """Exact sup norms of the bay squeeze's shift g and its gradient.

    The squeeze moves (x, y) to (x + g, y): g = 0 left of the reflex corner
    x1, and on the bottom strip 0 <= y <= y1 it ramps linearly from 0 at x1 to
    -(x2 - x3) at the right wall.  So sup|g| = x2 - x3, sup|grad g| =
    (x2 - x3)/(x2 - x1), the vertical shift is 0, and epsilon, the size of
    the deformation, is the larger of the two sups.
    """

    sup_g: Fraction
    sup_dg: Fraction
    epsilon: Fraction


@dataclass(frozen=True, eq=False)
class DeformationMap:
    """The squeeze of a broken rectangle's right wall to x = x3."""

    x3: Fraction
    bounds: DeformationBounds


_LSHAPE_ANGLES = tuple(Fraction(k, 2) for k in (1, 1, 3, 1, 1, 1))


def _lshape_corners(polygon) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Corners x1, y1, x2, y2 of a broken rectangle, read exactly.

    The angles of `shapes.l_shape` fix its vertex order from the origin and
    force N = 2, an exact frame, so each corner is a field element whose
    rational value is exact; an irrational corner is refused, not rounded.
    """
    if tuple(a.frac for a in polygon.angles) != _LSHAPE_ANGLES:
        raise OutOfRange("deformation expects a single-bay broken rectangle")
    v = polygon.verts
    corners = tuple(
        polygon.frame.rational_value(c)
        for c in (v[3].real, v[2].imag, v[1].real, v[4].imag)
    )
    if None in corners:
        raise OutOfRange("the broken rectangle has an irrational corner")
    return corners


def deform_domain(polygon, x3) -> tuple[object, DeformationMap]:
    """Shrink the bottom side of a broken rectangle from x2 to x3.

    Returns the deformed polygon together with the map carrying the
    original onto it, whose bounds are exact (see `DeformationBounds`).
    `x3` is taken as `Fraction(x3)`, so a float means its exact binary value.
    """
    x1, y1, x2, y2 = _lshape_corners(polygon)
    x3 = Fraction(x3)
    if not (x1 < x3 <= x2):
        raise OutOfRange(f"x3 must lie in ({x1}, {x2}]")
    shrink = x2 - x3
    slope = shrink / (x2 - x1)
    bounds = DeformationBounds(sup_g=shrink, sup_dg=slope, epsilon=max(shrink, slope))
    return l_shape(x1, y1, x3, y2), DeformationMap(x3=x3, bounds=bounds)


@dataclass(frozen=True, eq=False)
class StudyRow:
    epsilon: Fraction
    x3: Fraction
    eta: float
    bounds: DeformationBounds


@dataclass(frozen=True, eq=False)
class PerturbationStudy:
    base_levels: np.ndarray
    rows: tuple[StudyRow, ...]
    monotone: bool


def perturbation_study(
    polygon, epsilons: Sequence, count: int, h: float = 1.0 / 128
) -> PerturbationStudy:
    """Eigenvalue drift against deformation size for a broken rectangle.

    Each epsilon, taken as `Fraction(epsilon)`, shrinks the bottom side so
    that the squeeze's bounds come out at exactly that epsilon.  Every
    deformed polygon is built before the first solve, so a size out of range
    fails before any solver work.  Both domains are then solved with
    Dirichlet conditions at the same spacing, and eta is the worst relative
    drift over the first ``count`` respectively ordered levels.  Epsilons
    must decrease strictly so the monotone-trend flag is meaningful.
    """
    eps_list = [Fraction(e) for e in epsilons]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise OutOfRange("epsilons must be strictly decreasing")
    x1, _, x2, _ = _lshape_corners(polygon)
    # a squeeze by s has epsilon = max(s, s/span), so s = epsilon*min(1, span)
    scale = min(x2 - x1, 1)
    deformed = [deform_domain(polygon, x2 - eps * scale) for eps in eps_list]
    base = fd_eigenvalues(rasterize(polygon, h), count)
    rows = []
    for eps, (poly, dmap) in zip(eps_list, deformed):
        levels = fd_eigenvalues(rasterize(poly, h), count)
        eta = float(np.max(np.abs(levels / base - 1.0)))
        rows.append(StudyRow(epsilon=eps, x3=dmap.x3, eta=eta, bounds=dmap.bounds))
    etas = [r.eta for r in rows]
    return PerturbationStudy(
        base_levels=base,
        rows=tuple(rows),
        monotone=all(b < a for a, b in zip(etas, etas[1:])),
    )


def study_csv(study: PerturbationStudy) -> str:
    lines = ["epsilon,eta"]
    for row in study.rows:
        # float: Fraction does not take the :g format before Python 3.12
        lines.append(f"{float(row.epsilon):.12g},{row.eta:.12g}")
    return "\n".join(lines) + "\n"
