"""Finite-difference solver against closed-form spectra and the bay-squeeze map."""

from __future__ import annotations

import hashlib
import math
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from polybilliard import oracle
from polybilliard.cyclo import CycloField
from polybilliard.errors import ConvergenceFailure, OutOfRange, TooCoarse
from polybilliard.exactgeom import load_polygon, validate_polygon
from polybilliard.oracle import (
    compare_spectra,
    deform_domain,
    fd_eigenvalues,
    perturbation_study,
    rasterize,
    report_csv,
    richardson_order,
    study_csv,
)
from polybilliard.shapes import equilateral, l_shape, rectangle, square
from polybilliard.swf import DIRICHLET, NEUMANN

HALF_PI2 = 0.5 * math.pi**2
POLYGONS = Path(__file__).resolve().parent.parent / "polygons"


# ------------------------------------------------------------- rasterize

def test_too_coarse_rejected():
    with pytest.raises(TooCoarse):
        rasterize(square(), 1 / 4)
    with pytest.raises(TooCoarse):
        rasterize(l_shape(1, 1, 2, 2), 1 / 2)
    # exactly one eighth of the shortest side is allowed
    rasterize(square(), 1 / 8)


def test_square_interior_count():
    dom = rasterize(square(), 1 / 8)
    assert dom.interior_count == 7 * 7
    assert np.all(dom.weight[dom.mask] == 1.0)
    assert dom.bc == (DIRICHLET,) * 4


@pytest.mark.parametrize("make", [square, equilateral])
def test_fraction_spacing_rasterizes_as_its_float(make):
    # a Fraction spacing is the float spacing it equals: the same raster and
    # the same levels, on every Python that runs the package
    for h in (Fraction(1, 64), Fraction(1, 32)):
        got, want = rasterize(make(), h), rasterize(make(), float(h))
        assert type(got.h) is float and got.h == want.h and got.bc == want.bc
        for name in ("mask", "quadrants", "dirichlet_flux"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(fd_eigenvalues(got, 3), fd_eigenvalues(want, 3))


def test_lshape_interior_count_matches_lattice_oracle():
    h = Fraction(1, 8)
    dom = rasterize(l_shape(1, 1, 2, 2), float(h))

    def inside(x, y):
        return (0 < x < 2 and 0 < y < 1) or (0 < x < 1 and 0 < y < 2)

    brute = sum(
        inside(i * h, j * h) for i in range(0, 17) for j in range(0, 17)
    )
    assert dom.interior_count == brute
    # area defect is a boundary effect
    area = dom.interior_count * float(h) ** 2
    assert abs(area - 3.0) <= 2 * 8 * float(h)


def test_bc_map_forms():
    with pytest.raises(OutOfRange):
        rasterize(square(), 1 / 8, "robin")
    with pytest.raises(OutOfRange):
        rasterize(square(), 1 / 8, (DIRICHLET, NEUMANN))
    dom = rasterize(square(), 1 / 8, NEUMANN)
    assert dom.bc == (NEUMANN,) * 4


def test_neumann_counts_and_weights():
    dom = rasterize(square(), 1 / 8, NEUMANN)
    assert dom.interior_count == 9 * 9
    w = dom.weight
    assert w[0, 0] == 0.25 and w[0, 4] == 0.5 and w[4, 4] == 1.0


def test_mixed_bc_keeps_only_neumann_boundary_nodes():
    # Dirichlet on the vertical sides keeps top/bottom nodes minus corners
    dom = rasterize(square(), 1 / 8, (NEUMANN, DIRICHLET, NEUMANN, DIRICHLET))
    assert dom.interior_count == 7 * 7 + 2 * 7


# sha256 over every bundled polygon's GridDomain arrays (dtype, shape and
# bytes) with Dirichlet, Neumann and alternating sides, recorded from the
# rasterizer that held an (ny, nx, sides) array of edge distances
RASTER_DIGESTS = {
    16: "204a3ca047f07f5e3c5c620f7c09b05eec9950a47da5263395b57386558d68fd",
    64: "c1a16bc59584e7c45675585f8c5be517dcacf80d77afe3ca1f99165ade1aa6cd",
    128: "c5222d8c02de7ca884c7f8a5143804d016e92c49349ac6e028cd4d3d8cf2acf3",
}


@pytest.mark.parametrize("k", sorted(RASTER_DIGESTS))
def test_rasterize_is_bit_for_bit(k):
    digest = hashlib.sha256()
    for path in sorted(POLYGONS.glob("*.json")):
        polygon = load_polygon(path)
        alternating = tuple(DIRICHLET if s % 2 else NEUMANN for s in range(polygon.n))
        for bc in (DIRICHLET, NEUMANN, alternating):
            dom = rasterize(polygon, 1 / k, bc)
            for a in (dom.mask, dom.quadrants, dom.dirichlet_flux):
                digest.update(repr((a.dtype.str, a.shape)).encode())
                digest.update(a.tobytes())
    assert digest.hexdigest() == RASTER_DIGESTS[k]


def test_raster_memory_figure_bounds_what_rasterize_holds(monkeypatch):
    # the bytes per node that the refusal counts are at most what rasterize
    # holds at its peak per node, so a grid that fits is never refused, and
    # at least half of it, so the refusal is not a gross lower bound
    figures = []
    real = oracle._refuse_past_memory

    def capture(count, item_bytes, what):
        figures.append(item_bytes)
        real(count, item_bytes, what)

    monkeypatch.setattr(oracle, "_refuse_past_memory", capture)
    for polygon in (square(), l_shape(1, 1, 2, 2)):
        figures.clear()
        tracemalloc.start()
        try:
            dom = rasterize(polygon, 1 / 200)
            peak = tracemalloc.get_traced_memory()[1] / dom.mask.size
        finally:
            tracemalloc.stop()
        assert len(figures) == 1
        assert peak / 2 <= figures[0] <= peak


# -------------------------------------------------------- fd eigenvalues

def test_square_dirichlet_levels():
    vals = fd_eigenvalues(rasterize(square(), 1 / 32), 5)
    want = [HALF_PI2 * s for s in (2, 5, 5, 8, 10)]
    assert np.allclose(vals, want, rtol=1e-2)


def test_square_richardson_order():
    es = [fd_eigenvalues(rasterize(square(), h), 1)[0] for h in (1 / 16, 1 / 32, 1 / 64)]
    assert richardson_order(*es) >= 1.8


def _operator(dom):
    """The symmetrized -(1/2)*Laplacian that fd_eigenvalues solves, as a dense C-ordered array."""
    return oracle._operator(dom).toarray()


def _reference_operator(dom):
    """The reference construction of the operator, which the builder matches bit for bit.

    A COO stiffness matrix summed with `np.add.at`, scaled by two sparse
    diagonal products and divided by 2h².  It reads every mask node as an
    unknown, so a raster with a massless node gives it an infinite scale.
    """
    mask = dom.mask
    ny, nx = mask.shape
    idx = -np.ones(mask.shape, dtype=np.int64)
    idx[mask] = np.arange(dom.interior_count)
    diag = dom.dirichlet_flux[mask].astype(float)
    rows, cols, vals = [], [], []
    pad_idx = np.pad(idx, 1, constant_values=-1)
    for dj, di in ((0, 1), (0, -1), (1, 0), (-1, 0)):
        nb = pad_idx[1 + dj : 1 + dj + ny, 1 + di : 1 + di + nx]
        coef = dom.face_coefficients(di, dj)
        linked = mask & (nb >= 0) & (coef > 0)
        rows.append(idx[linked])
        cols.append(nb[linked])
        vals.append(coef[linked])
        np.add.at(diag, idx[linked], coef[linked])
    n = dom.interior_count
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    stiffness = scipy.sparse.coo_matrix(
        (np.concatenate([diag, -vals]),
         (np.concatenate([np.arange(n), rows]), np.concatenate([np.arange(n), cols]))),
        shape=(n, n),
    ).tocsr()
    scale = 1.0 / np.sqrt(dom.weight[mask])
    sym = scipy.sparse.diags(scale) @ stiffness @ scipy.sparse.diags(scale)
    return (sym / (2.0 * dom.h * dom.h)).tocsc()


@pytest.mark.parametrize("path", sorted(POLYGONS.glob("*.json")), ids=lambda p: p.stem)
def test_operator_equals_the_reference_construction(monkeypatch, path):
    # the builder's CSC arrays, and the levels both branches solve from
    # them, are those of the construction it replaced, bit for bit; the
    # coarse spacing takes the dense branch, the fine one the sparse
    polygon = load_polygon(path)
    mixed = tuple(DIRICHLET if s % 2 else NEUMANN for s in range(polygon.n))
    compared = set()
    for bc in (DIRICHLET, NEUMANN, mixed):
        fine = 32
        while rasterize(polygon, 1 / fine, bc).interior_count <= oracle._DENSE_LIMIT:
            fine += 16
        for k in (16, fine):
            dom = rasterize(polygon, 1 / k, bc)
            if (dom.mask & (dom.weight == 0)).any():  # the reference cannot solve these
                continue
            got, want = oracle._operator(dom), _reference_operator(dom)
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), (bc, k, name)
            levels = fd_eigenvalues(dom, 3)
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "_operator", _reference_operator)
                assert fd_eigenvalues(dom, 3).tobytes() == levels.tobytes(), (bc, k)
            compared.add(dom.interior_count > oracle._DENSE_LIMIT)
    if not compared:
        pytest.skip("every raster has a massless unknown")
    assert compared == {False, True}


def test_dense_branch_equals_copying_eigh_bitwise():
    # the dense branch lets LAPACK overwrite a Fortran-ordered matrix; the
    # call it replaced, on a C-ordered copy, must give the same bits
    dom = rasterize(l_shape(1, 1, 2, 2), 1 / 32)
    assert dom.interior_count <= oracle._DENSE_LIMIT
    old = scipy.linalg.eigh(_operator(dom), eigvals_only=True, subset_by_index=(0, 11))
    assert fd_eigenvalues(dom, 12).tobytes() == np.asarray(old).tobytes()


def test_sparse_path_agrees_and_is_deterministic():
    dom = rasterize(square(), 1 / 70)
    assert dom.interior_count > 4000
    a = fd_eigenvalues(dom, 3)
    b = fd_eigenvalues(dom, 3)
    assert np.array_equal(a, b)
    assert np.allclose(a, [HALF_PI2 * s for s in (2, 5, 5)], rtol=2e-3)


@pytest.mark.parametrize("polygon, h, bc", [
    (square(), 1 / 32, DIRICHLET),
    (l_shape(1, 1, 2, 2), 1 / 16, DIRICHLET),
    (square(), 1 / 32, NEUMANN),  # singular: a zero level
    (square(), 1 / 32, (NEUMANN, DIRICHLET, NEUMANN, DIRICHLET)),
    (load_polygon(POLYGONS / "isosceles_pi5.json"), 1 / 32, DIRICHLET),  # a massless apex
    (load_polygon(POLYGONS / "isosceles_pi5.json"), 1 / 32, NEUMANN),
], ids=["dirichlet-square", "l-shape", "neumann-square", "mixed-square",
        "dirichlet-isosceles-pi5", "neumann-isosceles-pi5"])
def test_sparse_branch_matches_dense_to_roundoff(monkeypatch, polygon, h, bc):
    # with the limit lowered, these small domains take the sparse branch
    monkeypatch.setattr(oracle, "_DENSE_LIMIT", 0)
    dom = rasterize(polygon, h, bc)
    dense = scipy.linalg.eigh(_operator(dom), eigvals_only=True, subset_by_index=(0, 9))
    sparse = fd_eigenvalues(dom, 10)
    if bc == NEUMANN:
        assert abs(sparse[0]) < 1e-9 and abs(dense[0]) < 1e-9
        sparse, dense = sparse[1:], dense[1:]
    assert np.allclose(sparse, dense, rtol=1e-12, atol=0)


@pytest.mark.parametrize("k", [32, 128])
@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
def test_massless_node_is_left_out(k, bc):
    # the apex node of isosceles_pi5 has all four cell corners outside: an
    # isolated row of mass zero, which made the dense branch divide by zero
    # and the sparse factor singular.  Left out, both branches solve
    dom = rasterize(load_polygon(POLYGONS / "isosceles_pi5.json"), 1 / k, bc)
    assert int((dom.mask & (dom.weight == 0)).sum()) == 1
    assert (dom.interior_count > oracle._DENSE_LIMIT) == (k == 128)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        levels = fd_eigenvalues(dom, 4)
    assert np.all(np.isfinite(levels)) and np.all(np.diff(levels) >= 0)
    assert oracle._operator(dom).shape == (dom.interior_count - 1,) * 2


def test_operator_memory_figures_bound_what_the_solver_holds(monkeypatch):
    # the bytes the builder's refusal counts, and those of the dense
    # branch's n x n array, are at most what tracemalloc sees at the peak,
    # so an operator that fits is never refused, and at least half of it
    figures = []
    real = oracle._refuse_past_memory

    def capture(count, item_bytes, what):
        figures.append(count * item_bytes)
        real(count, item_bytes, what)

    def traced_peak(solve, dom):
        figures.clear()
        tracemalloc.start()
        try:
            solve(dom)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(oracle, "_refuse_past_memory", capture)
    for polygon in (square(), l_shape(1, 1, 2, 2)):
        peak = traced_peak(oracle._operator, rasterize(polygon, 1 / 200))
        assert len(figures) == 1
        assert peak / 2 <= figures[0] <= peak
    for polygon, k in ((square(), 32), (equilateral(), 64)):
        peak = traced_peak(lambda dom: fd_eigenvalues(dom, 3), rasterize(polygon, 1 / k))
        assert len(figures) == 2  # the builder's, then the dense array's
        assert peak / 2 <= figures[1] <= peak


def test_arpack_giving_up_is_convergence_failure(monkeypatch):
    def give_up(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", give_up)
    dom = rasterize(square(), 1 / 72)
    assert dom.interior_count > oracle._DENSE_LIMIT
    with pytest.raises(ConvergenceFailure, match="No convergence"):
        fd_eigenvalues(dom, 3)


@pytest.mark.parametrize("error, refused", [
    (MemoryError(), True),
    (RuntimeError("SUPERLU_MALLOC fails for buf in intCalloc()"), True),
    (RuntimeError("Factor is exactly singular"), False),
])
def test_lu_factor_past_memory_is_out_of_range(monkeypatch, error, refused):
    # SuperLU reports an allocation it could not make as a RuntimeError
    # whose message starts SUPERLU_MALLOC; every other RuntimeError is a fault
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(scipy.sparse.linalg, "splu", fail)
    dom = rasterize(square(), 1 / 72)
    assert dom.interior_count > oracle._DENSE_LIMIT
    if refused:
        with pytest.raises(OutOfRange, match="sparse LU factor larger than memory can hold"):
            fd_eigenvalues(dom, 3)
    else:
        with pytest.raises(RuntimeError, match="exactly singular"):
            fd_eigenvalues(dom, 3)


def test_rectangle_ground_level():
    vals = fd_eigenvalues(rasterize(rectangle(2, 1), 1 / 16), 1)
    assert vals[0] == pytest.approx(5 * math.pi**2 / 8, rel=5e-3)


def test_neumann_square_levels():
    vals = fd_eigenvalues(rasterize(square(), 1 / 32, NEUMANN), 6)
    assert abs(vals[0]) < 1e-8
    want = [HALF_PI2 * s for s in (1, 1, 2, 4, 4)]
    assert np.allclose(vals[1:], want, rtol=5e-3)


def test_mixed_square_levels():
    bc = (NEUMANN, DIRICHLET, NEUMANN, DIRICHLET)
    vals = fd_eigenvalues(rasterize(square(), 1 / 32, bc), 3)
    want = [HALF_PI2 * s for s in (1, 2, 4)]
    assert np.allclose(vals, want, rtol=5e-3)


def test_lshape_contains_product_family():
    vals = fd_eigenvalues(rasterize(l_shape(1, 1, 2, 2), 1 / 32), 12)
    family = [HALF_PI2 * 2, HALF_PI2 * 5, HALF_PI2 * 5]
    rep = compare_spectra(family, vals, rel_tol=0.01)
    assert rep.passed, rep.max_rel_err


def test_count_bounds():
    dom = rasterize(square(), 1 / 16)
    with pytest.raises(OutOfRange):
        fd_eigenvalues(dom, dom.interior_count // 4 + 1)
    with pytest.raises(OutOfRange):
        fd_eigenvalues(dom, 0)


@pytest.mark.parametrize("width,height", [(1, 1), (2, 1), (Fraction(3, 2), 1)])
def test_rectangle_family(width, height):
    vals = fd_eigenvalues(rasterize(rectangle(width, height), 1 / 16), 2)
    w, hgt = float(width), float(height)
    exact = sorted(
        HALF_PI2 * ((m / w) ** 2 + (n / hgt) ** 2)
        for m in (1, 2)
        for n in (1, 2)
    )[:2]
    assert np.allclose(vals, exact, rtol=2e-2)


# ------------------------------------------------------- spectrum matching

def test_compare_identical():
    rep = compare_spectra([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], rel_tol=1e-12)
    assert rep.passed and rep.max_rel_err == 0.0
    assert rep.unmatched_fraction == 0.0


def test_compare_picks_nearest():
    rep = compare_spectra([10.0], [9.0, 10.4], rel_tol=0.1)
    assert rep.pairs[0][1] == 10.4
    assert rep.pairs[0][2] == pytest.approx(0.04)
    assert rep.unmatched_fraction == 0.5


def test_compare_against_empty_numerical_spectrum_is_out_of_range():
    with pytest.raises(OutOfRange, match="numerical spectrum is empty"):
        compare_spectra([1.0], [], rel_tol=0.1)
    assert compare_spectra([], [], rel_tol=0.1).passed


def test_compare_swapped_roles_transpose():
    a = [1.0, 2.0, 3.0]
    b = [1.01, 2.02, 2.97]
    ab = compare_spectra(a, b, 0.1)
    ba = compare_spectra(b, a, 0.1)
    assert [(s, n) for s, n, *_ in ab.pairs] == [(n, s) for s, n, *_ in ba.pairs]


def test_secton_incompleteness_families():
    # bottom side 2 versus 2 - 1/k: the shrunken family lands exactly on
    # every k-th x-label of the big one, everything else goes unmatched
    k = 5
    n_fixed = 1
    big = [HALF_PI2 * (m**2 + n_fixed**2) for m in range(1, 3 * k + 1)]
    fine = [HALF_PI2 * (m**2 * k**2 + n_fixed**2) for m in range(1, 4)]
    rep = compare_spectra(fine, big, rel_tol=1e-12)
    assert rep.passed and rep.max_rel_err == 0.0
    matched = {p[3] for p in rep.pairs}
    assert matched == {k - 1, 2 * k - 1, 3 * k - 1}
    assert rep.unmatched_fraction == pytest.approx((k - 1) / k)


def test_report_csv_format():
    rep = compare_spectra([1.0], [1.0, 2.0], rel_tol=0.1)
    text = report_csv(rep)
    lines = text.split("\n")
    assert lines[0] == "level_index,numerical_e,semiclassical_e,rel_error"
    assert lines[1] == "0,1,1,0"
    assert text.endswith("\n")


# ------------------------------------------------------- domain deformation

def test_deform_identity():
    base = l_shape(1, 1, 2, 2)
    poly, dmap = deform_domain(base, 2)
    assert dmap.bounds.epsilon == 0
    assert poly.vertices_float() == base.vertices_float()
    assert dmap.bounds.sup_g == dmap.bounds.sup_dg == 0


def test_deform_ramp_values():
    _, dmap = deform_domain(l_shape(1, 1, 2, 2), Fraction(19, 10))
    # the right wall moves by 1/10 over a ramp of width 1
    bounds = dmap.bounds
    assert bounds.sup_g == bounds.sup_dg == bounds.epsilon == Fraction(1, 10)


def _exact_vertices(polygon):
    rational = polygon.frame.rational_value
    return [(rational(v.real), rational(v.imag)) for v in polygon.verts]


@pytest.mark.parametrize(
    "corners, x3",
    [
        # span x2 - x1 = 1/2 < 1: the slope bound is the larger one
        ((1, 1, Fraction(3, 2), 2), Fraction(7, 5)),
        # span 3/2 > 1: the shift bound is the larger one
        ((Fraction(1, 2), 1, 2, 2), Fraction(19, 10)),
    ],
)
def test_deform_bounds_are_the_exact_vertex_shift(corners, x3):
    base = l_shape(*corners)
    poly, dmap = deform_domain(base, x3)
    moves = [
        (a[0] - b[0], a[1] - b[1])
        for a, b in zip(_exact_vertices(base), _exact_vertices(poly))
    ]
    # the shift is linear between corners, so its sup is a vertex shift
    assert all(dy == 0 for _, dy in moves)
    sup_g = max(abs(dx) for dx, _ in moves)
    x1, x2 = Fraction(corners[0]), Fraction(corners[2])
    bounds = dmap.bounds
    assert bounds.sup_g == sup_g == x2 - x3
    assert bounds.sup_dg == sup_g / (x2 - x1)
    assert bounds.epsilon == max(bounds.sup_g, bounds.sup_dg)
    assert all(
        type(b) is Fraction for b in (bounds.sup_g, bounds.sup_dg, bounds.epsilon)
    )


def test_deform_reads_a_corner_near_an_integer_exactly():
    x2 = 1 + Fraction(1, 10**7)
    x3 = 1 + Fraction(1, 2 * 10**7)
    poly, dmap = deform_domain(l_shape(1, 1, x2, 2), x3)
    assert dmap.x3 == x3
    assert dmap.bounds.sup_g == x2 - x3
    assert _exact_vertices(poly)[1] == (x3, 0)


def test_deform_keeps_an_exact_corner_unrounded():
    x1 = Fraction(1, 3) + Fraction(1, 10**8)
    poly, dmap = deform_domain(l_shape(x1, 1, 2, 2), Fraction(19, 10))
    assert _exact_vertices(poly)[3] == (x1, 1)
    assert dmap.bounds.sup_dg == Fraction(1, 10) / (2 - x1)


def test_deform_takes_a_float_at_its_binary_value():
    _, dmap = deform_domain(l_shape(1, 1, 2, 2), 1.9)
    assert dmap.x3 == Fraction(1.9) != Fraction(19, 10)


def test_deform_refuses_an_irrational_corner():
    root2 = CycloField(8).zeta(1).real * 2  # sqrt(2)
    poly = validate_polygon(
        ["1/2", "1/2", "3/2", "1/2", "1/2", "1/2"], [root2, 1, root2 - 1, 1, 1, 2]
    )
    with pytest.raises(OutOfRange, match="irrational"):
        deform_domain(poly, Fraction(13, 10))


def test_deform_rejects_bad_inputs():
    base = l_shape(1, 1, 2, 2)
    with pytest.raises(OutOfRange):
        deform_domain(base, Fraction(21, 10))
    with pytest.raises(OutOfRange):
        deform_domain(base, 1)
    with pytest.raises(OutOfRange):
        deform_domain(square(), Fraction(19, 10))


def test_deformed_polygon_geometry():
    poly, dmap = deform_domain(l_shape(1, 1, 2, 2), Fraction(19, 10))
    assert dmap.x3 == Fraction(19, 10)
    xs = [v.real for v in poly.vertices_float()]
    assert max(xs) == pytest.approx(1.9)


def test_perturbation_study_trend_and_zero():
    study = perturbation_study(
        l_shape(1, 1, 2, 2), [Fraction(1, 10), Fraction(1, 20), 0], count=5, h=1 / 32
    )
    etas = [r.eta for r in study.rows]
    assert study.monotone
    assert etas[-1] == 0.0  # identity deformation reproduces the base grid
    assert len(study.base_levels) == 5


def test_study_size_is_exact():
    # 1/1000003 has a denominator above 10**6: the squeeze is by exactly that
    study = perturbation_study(
        l_shape(1, 1, 2, 2), [Fraction(1, 1000003)], count=2, h=1 / 16
    )
    (row,) = study.rows
    assert row.epsilon == Fraction(1, 1000003)
    assert row.x3 == 2 - Fraction(1, 1000003)


@pytest.mark.parametrize(
    "corners",
    [(1, 1, Fraction(3, 2), 2), (1, 1, 2, 2), (Fraction(1, 2), 1, 2, 2)],
)
def test_study_rows_carry_their_exact_epsilon(corners):
    study = perturbation_study(
        l_shape(*corners), [Fraction(1, 10), Fraction(1, 20)], count=2, h=1 / 20
    )
    for row in study.rows:
        assert row.bounds.epsilon == row.epsilon


def test_study_rejects_a_size_before_any_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the sizes were checked")

    monkeypatch.setattr(oracle, "fd_eigenvalues", no_solve)
    with pytest.raises(OutOfRange):
        perturbation_study(l_shape(1, 1, 2, 2), [5, Fraction(1, 10)], count=2)


def test_perturbation_study_requires_decreasing():
    with pytest.raises(OutOfRange):
        perturbation_study(l_shape(1, 1, 2, 2), [0.05, 0.1], count=3, h=1 / 32)


def test_study_csv_format():
    study = perturbation_study(
        l_shape(1, 1, 2, 2), [Fraction(1, 10), Fraction(1, 20)], count=3, h=1 / 32
    )
    lines = study_csv(study).strip().split("\n")
    assert lines[0] == "epsilon,eta"
    assert len(lines) == 3
    assert lines[1].startswith("0.1,")
