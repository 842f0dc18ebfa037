"""Unfolding: image orbits, elementary patterns, genus, periods, channels."""

import cmath
import hashlib
import math
import os
import subprocess
import sys
import time
from collections import defaultdict, deque
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polybilliard
from polybilliard import cli, unfold
from polybilliard.errors import ConvergenceFailure, RankMismatch
from polybilliard.shapes import (
    broken_parallelogram,
    equilateral,
    isosceles_pi5,
    l_shape,
    parallelogram_pi3,
    rectangle,
    right_triangle_rationalized,
    square,
)
from polybilliard.exactgeom import load_polygon, solve_closure, validate_polygon
from polybilliard.unfold import (
    EPP,
    EdgePair,
    Isometry,
    Period,
    PolygonImage,
    build_epp,
    channel_exists,
    find_pocs,
    genus,
    period_basis,
)
from polybilliard.unfold import _basis_cycles, _mirror, _vertex_classes

POLYGONS = Path(__file__).resolve().parent.parent / "polygons"


def _identity_image(polygon) -> PolygonImage:
    return PolygonImage(1, Isometry.identity(polygon.frame), polygon)


def _vec(frame, v) -> complex:
    return frame.to_complex(v)


def _same_vector(frame, a, b, scale=1.0) -> bool:
    return frame.is_zero(a - b, scale)


# --- _mirror ----------------------------------------------------------------

def test_reflect_square_bottom_is_conjugation():
    p = square()
    iso = _mirror(Isometry.identity(p.frame), p, 0)
    assert iso.reflecting is True
    assert iso.rotation == 0
    assert p.frame.is_zero(iso.translation)
    assert PolygonImage(2, iso, p).parity == 1


def test_reflect_twice_is_identity():
    p = square()
    iso = _mirror(_mirror(Isometry.identity(p.frame), p, 0), p, 0)
    assert iso.reflecting is False
    assert iso.rotation == 0
    assert p.frame.is_zero(iso.translation)


def test_reflect_adjacent_edges_gives_vertex_rotation():
    # two mirrors meeting at angle (p/q)*pi compose to a rotation by 2(p/q)*pi
    # about the shared vertex; for the square that is a half-turn about (1,0)
    p = square()
    f = p.frame
    iso = _mirror(_mirror(Isometry.identity(f), p, 0), p, 1)
    assert iso.reflecting is False
    assert iso.rotation == p.N  # pi in units of pi/N
    v = f.from_xy(1, 0)
    assert f.is_zero(iso.apply(f, v) - v)


# --- build_epp --------------------------------------------------------------

def test_epp_counts():
    for mk, n_images, c in [
        (square, 4, 2),
        (l_shape, 4, 2),
        (parallelogram_pi3, 6, 3),
        (equilateral, 6, 3),
        (isosceles_pi5, 10, 5),
        (broken_parallelogram, 12, 6),
    ]:
        epp = build_epp(mk())
        assert len(epp.images) == n_images
        assert epp.C == c
        assert len(epp.images) == 2 * epp.C


def test_epp_rationalized_triangle_has_2000_images(monkeypatch):
    calls = _count_channel_tests(monkeypatch)
    epp = build_epp(right_triangle_rationalized())
    assert len(epp.images) == 2000
    assert epp.C == 1000
    assert calls == []  # unfolding traces no channel, whatever the size


def test_epp_images_pairwise_nonfaithful():
    for mk in (square, l_shape, parallelogram_pi3, isosceles_pi5):
        epp = build_epp(mk())
        orientations = {(im.iso.reflecting, im.iso.rotation) for im in epp.images}
        assert len(orientations) == len(epp.images)


def test_epp_base_image_is_identity():
    epp = build_epp(parallelogram_pi3())
    base = epp.image(1)
    assert base.iso.reflecting is False
    assert base.iso.rotation == 0
    assert epp.polygon.frame.is_zero(base.iso.translation)


def test_epp_every_side_has_c_copies():
    for mk in (square, l_shape, parallelogram_pi3, broken_parallelogram):
        epp = build_epp(mk())
        for s in range(epp.polygon.n):
            assert sum(1 for e in epp.edges if e.side == s) == epp.C


def test_epp_gluing_covers_every_slot():
    epp = build_epp(l_shape())
    n = epp.polygon.n
    assert set(epp.gluing) == {(k, s) for k in range(1, 5) for s in range(n)}
    # crossing a pair and crossing it back cancels the translation
    f = epp.polygon.frame
    for (k, s), (j, t) in epp.gluing.items():
        back, t_back = epp.gluing[(j, s)]
        assert back == k
        assert f.is_zero(t + t_back)


def test_epp_boundary_translations_nonzero_interior_zero():
    for mk in (square, parallelogram_pi3, isosceles_pi5):
        epp = build_epp(mk())
        f = epp.polygon.frame
        scale = epp.polygon.perimeter_float()
        for e in epp.edges:
            if e.period is None:
                assert f.is_zero(e.translation, scale)
        for e in epp.edge_pairs:
            assert not f.is_zero(e.translation, scale)
            # the attached simple period carries the canonical sign
            z = _vec(f, e.period.vector)
            assert z.real > 1e-9 or (abs(z.real) <= 1e-9 and z.imag > 0)


def test_epp_dump_golden():
    expected = """\
EPP C=2 images=4 exact=True
image 1: rot=0 refl=0 t=(0,0) t_exact=Cyclo(0)
image 2: rot=0 refl=1 t=(0,0) t_exact=Cyclo(0)
image 3: rot=2 refl=1 t=(2,0) t_exact=Cyclo[8](2*z(0,))
image 4: rot=2 refl=0 t=(2,0) t_exact=Cyclo[8](2*z(0,))
pair side 0: 1 <-> 2 T=(0,0) [interior]
pair side 1: 1 <-> 3 T=(0,0) [interior]
pair side 2: 1 <-> 2 T=(0,2) [simple-internal]
pair side 3: 1 <-> 3 T=(-2,0) [simple-internal]
pair side 1: 2 <-> 4 T=(0,0) [interior]
pair side 3: 2 <-> 4 T=(-2,0) [simple-internal]
pair side 0: 3 <-> 4 T=(0,0) [interior]
pair side 2: 3 <-> 4 T=(0,2) [simple-internal]"""
    assert build_epp(square()).dump() == expected


# --- genus ------------------------------------------------------------------

def test_genus_values():
    assert genus(rectangle(3, 1)) == 1
    assert genus(square()) == 1
    assert genus(equilateral()) == 1
    assert genus(l_shape()) == 2
    assert genus(parallelogram_pi3()) == 2
    assert genus(isosceles_pi5()) == 2
    assert genus(broken_parallelogram()) == 5
    assert genus(right_triangle_rationalized()) == 250


# --- period_basis -----------------------------------------------------------

def test_square_period_basis_exact():
    p = square()
    f = p.frame
    basis = period_basis(build_epp(p))
    assert len(basis) == 2
    want = [f.from_xy(2, 0), f.from_xy(0, 2)]
    for got, expect in zip(basis, want):
        assert f.is_zero(got.vector - expect)
        assert got.kind == "simple-internal"


def test_l_shape_period_basis_matches_side_doubling():
    # four periods, doubling each of the two side lengths per axis
    p = l_shape()
    f = p.frame
    basis = period_basis(build_epp(p))
    got = sorted((round(_vec(f, b.vector).real, 9), round(_vec(f, b.vector).imag, 9)) for b in basis)
    assert got == [(0.0, 2.0), (0.0, 4.0), (2.0, 0.0), (4.0, 0.0)]


def test_parallelogram_period_basis_ratio_pairs():
    # with side ratio a the slant periods come in pairs scaled by 1/a
    a = Fraction(2, 3)
    p = parallelogram_pi3(a)
    f = p.frame
    basis = period_basis(build_epp(p))
    assert len(basis) == 4
    sa = f.scalar(a)
    d1 = sa * (f.unit(0) + f.unit(1))  # (3a/2, sqrt(3)a/2)
    d2 = sa * (f.unit(0) + f.unit(-1))
    inv_a = Fraction(1, 1) / a

    def contains(v) -> bool:
        return any(f.is_zero(b.vector - v) for b in basis)

    assert contains(d1)
    assert contains(d1 * inv_a)
    assert contains(d2 * inv_a)
    # d2 itself appears through the combination d1 - (d1 - d2)
    assert contains(d1 - d2)


def test_period_count_is_twice_genus():
    for mk in (square, l_shape, parallelogram_pi3, equilateral, isosceles_pi5, broken_parallelogram):
        p = mk()
        basis = period_basis(build_epp(p))
        assert len(basis) == 2 * genus(p)


def test_rationalized_triangle_period_basis_has_500_periods():
    assert len(period_basis(build_epp(right_triangle_rationalized()))) == 500


def test_period_kinds_are_classified():
    basis = period_basis(build_epp(broken_parallelogram()))
    kinds = {b.kind for b in basis}
    assert kinds <= {"simple-internal", "structural", "compound"}
    assert "structural" in kinds  # Fig. 4-style notch blocks two slant channels


def test_square_orbit_closure_under_periods():
    # shifting any image by any basis period lands on an image of the same
    # orientation, displaced by an element of the period lattice (2Z x 2Z)
    p = square()
    f = p.frame
    epp = build_epp(p)
    basis = period_basis(epp)
    for img in epp.images:
        for b in basis:
            shifted = img.iso.translation + b.vector
            mates = [
                other
                for other in epp.images
                if other.iso.reflecting == img.iso.reflecting
                and other.iso.rotation == img.iso.rotation
            ]
            assert len(mates) == 1
            d = shifted - mates[0].iso.translation
            rx = f.rational_value(d.real)
            ry = f.rational_value(d.imag)
            assert rx is not None and ry is not None
            assert rx % 2 == 0 and ry % 2 == 0


def _rectilinear_lattice_gcds(polygon, basis) -> list[Fraction]:
    """Per-axis gcd of an axis-aligned period basis, sorted."""
    f = polygon.frame
    xs, ys = [], []
    for b in basis:
        rx = f.rational_value(b.vector.real)
        ry = f.rational_value(b.vector.imag)
        assert rx is not None and ry is not None and (rx == 0 or ry == 0)
        (xs if ry == 0 else ys).append(abs(rx if ry == 0 else ry))
    def g(vals):
        den = lcm(*(v.denominator for v in vals))
        return Fraction(gcd(*(int(v * den) for v in vals)), den)
    return sorted([g(xs), g(ys)])


def test_equivalent_epp_same_invariants():
    # relabeling the polygon (starting the side walk elsewhere) rotates the
    # whole picture and may pick a different homology basis, but genus, counts,
    # and the plane lattice the periods generate must not move
    base_angles = ["1/2", "1/2", "3/2", "1/2", "1/2", "1/2"]
    base_lengths = [2, 1, 1, 1, 1, 2]
    ref = build_epp(validate_polygon(base_angles, base_lengths))
    ref_basis = period_basis(ref)
    ref_lattice = _rectilinear_lattice_gcds(ref.polygon, ref_basis)
    for shift in (1, 2, 3):
        angles = base_angles[shift:] + base_angles[:shift]
        lengths = base_lengths[shift:] + base_lengths[:shift]
        p = validate_polygon(angles, lengths)
        epp = build_epp(p)
        assert len(epp.images) == len(ref.images)
        assert genus(p) == genus(ref.polygon)
        basis = period_basis(epp)
        assert len(basis) == len(ref_basis)
        assert _rectilinear_lattice_gcds(p, basis) == ref_lattice


def _right_triangle(a: int, n: int):
    angles = [Fraction(a, n), Fraction(1, 2), Fraction(1, 2) - Fraction(a, n)]
    return validate_polygon(angles, solve_closure(angles, [1, None, None]))


# the bundled polygons, every constructor of `shapes`, and triangles in float
# (1/38, 3/44) and exact (1/20) frames
VERTEX_CASES = {
    **{path.name: (lambda path=path: load_polygon(str(path)))
       for path in sorted(POLYGONS.glob("*.json"))},
    "square": square,
    "rectangle": lambda: rectangle(3, 2),
    "l_shape": l_shape,
    "parallelogram_pi3": parallelogram_pi3,
    "equilateral": equilateral,
    "isosceles_pi5": isosceles_pi5,
    "broken_parallelogram": broken_parallelogram,
    "right_triangle_rationalized": right_triangle_rationalized,
    "triangle_1_38": lambda: _right_triangle(1, 38),
    "triangle_3_44": lambda: _right_triangle(3, 44),
    "triangle_1_20": lambda: _right_triangle(1, 20),
}


@pytest.mark.parametrize("name", VERTEX_CASES)
def test_vertex_classes_hold_2q_corners_and_close(name):
    # going around a vertex of the glued surface crosses the two sides at the
    # corner alternately; for an angle (p/q)*pi it meets 2q corners, and the
    # developed images close up, so the crossing translations sum to zero
    p = VERTEX_CASES[name]()
    f, n = p.frame, p.n
    epp = build_epp(p)
    classes = defaultdict(set)
    for corner, v in _vertex_classes(epp).items():
        classes[v].add(corner)
    assert sorted(classes) == list(range(len(classes)))
    for corners in classes.values():
        k, i = min(corners)
        q = p.angles[(i - 1) % n].q  # the angle at vertex i ends side i-1
        assert len(corners) == 2 * q
        walk, cur, hol = [], k, f.zero()
        for step in range(2 * q):
            walk.append((cur, i))
            cur, t = epp.gluing[(cur, i if step % 2 == 0 else (i - 1) % n)]
            hol = hol + t
        assert cur == k and sorted(walk) == sorted(corners)
        assert hol == f.zero() if f.exact else f.is_zero(hol, p.perimeter_float())


def _bfs_face_tree(epp):
    """Breadth-first spanning tree of the images over the zero-translation gluings.

    Maps each image to (parent image, index in `edges` of the gluing to
    it), image 1 to None, in the order the search reaches the images: the
    reference the unfolding's own face tree is checked against.
    """
    adj = defaultdict(list)
    for cid, e in enumerate(epp.edges):
        if e.period is None:
            adj[e.a].append((e.b, cid))
            adj[e.b].append((e.a, cid))
    parent = {1: None}
    queue = deque([1])
    while queue:
        k = queue.popleft()
        for k2, cid in adj[k]:
            if k2 not in parent:
                parent[k2] = (k, cid)
                queue.append(k2)
    return parent


@pytest.mark.parametrize("name", VERTEX_CASES)
def test_face_tree_is_the_breadth_first_tree(name):
    # the gluings that created the images are the tree a breadth-first search
    # over the interior gluings finds, image for image and in the same order
    epp = build_epp(VERTEX_CASES[name]())
    tree = epp.face_tree
    assert list(tree.items()) == list(_bfs_face_tree(epp).items())
    assert sorted(tree) == [img.index for img in epp.images]
    seen = set()
    for k, up in tree.items():
        if up is not None:
            parent, cid = up
            e = epp.edges[cid]
            assert parent in seen and e.period is None and (e.a, e.b) == (parent, k)
        seen.add(k)


def _homology_coords(epp):
    """Tree–co-tree split of the edge classes and the cycle coordinates it gives.

    The crossing cycle of an edge class crosses it from image a to image b
    and returns through the face tree (`EPP.face_tree`).  The edge class
    itself is also a segment between two vertex classes, oriented from corner
    s to corner s+1 of image a, reversed when a is reflecting, so that every
    crossing runs from its left to its right.  A spanning co-tree of the
    vertex classes over the classes off the face tree leaves 2g classes
    over; returns them and, for every class off the face tree, the integer
    coordinates of its crossing cycle over theirs.
    """
    n = epp.polygon.n
    g = genus(epp.polygon)
    vclass = _vertex_classes(epp)
    nverts = len(set(vclass.values()))
    face_tree = {p[1] for p in epp.face_tree.values() if p is not None}
    ends = {}  # class id -> (tail, head) vertex class
    adj = defaultdict(list)
    for cid, e in enumerate(epp.edges):
        if cid in face_tree:
            continue
        tail, head = vclass[(e.a, e.side)], vclass[(e.a, (e.side + 1) % n)]
        if epp.image(e.a).iso.reflecting:
            tail, head = head, tail
        ends[cid] = (tail, head)
        adj[tail].append((head, cid, 1))
        adj[head].append((tail, cid, -1))
    # vertex class -> (parent, class id, +1 if the class points at the parent)
    up = {0: None}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w, cid, d in adj[v]:
            if w not in up:
                up[w] = (v, cid, -d)
                queue.append(w)
    if len(up) != nverts:
        raise RankMismatch("co-tree does not reach every vertex class")
    co_tree = {p[1] for p in up.values() if p is not None}
    leftover = [cid for cid in ends if cid not in co_tree]
    if len(leftover) != 2 * g:
        raise RankMismatch(
            f"{len(leftover)} edge classes off the tree and co-tree, genus demands {2 * g}"
        )
    # The coordinate of a crossing cycle on leftover class j is its
    # intersection number with j's primal cycle: j from tail to head, then
    # back through the co-tree.  The crossing cycle meets only its own class
    # and face-tree classes, and no primal cycle uses a face-tree class.
    coords = {cid: [0] * (2 * g) for cid in co_tree}
    for j, cid in enumerate(leftover):
        coords[cid] = [int(i == j) for i in range(2 * g)]
        tail, head = ends[cid]
        for v, sign in ((head, 1), (tail, -1)):
            while up[v] is not None:
                v, c, d = up[v]
                coords[c][j] += sign * d
    return leftover, coords


def _fraction_det(a):
    """|det a| by Fraction elimination (test oracle)."""
    m = [[Fraction(x) for x in row] for row in a]
    n, det = len(m), Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
        m[c], m[piv] = m[piv], m[c]
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return abs(det)


def _greedy_rank_choice(epp, coords):
    """The classes off the face tree, shortest first, that raise the rank over Q.

    Rows are kept in reduced echelon form over Fraction: a candidate is
    reduced against every pivot and accepted when something is left.
    """
    def key(cid):
        e = epp.edges[cid]
        if e.period is None:
            return (1, 0.0, cid)
        return (0, round(abs(complex(e.translation)), 12), cid)

    pivots = {}  # pivot column -> row with 1 there and 0 at every other pivot
    accepted = []
    for cid in sorted(coords, key=key):
        v = [Fraction(x) for x in coords[cid]]
        for c, row in pivots.items():
            if v[c]:
                v = [x - v[c] * y for x, y in zip(v, row)]
        c = next((i for i, x in enumerate(v) if x), None)
        if c is None:
            continue
        v = [x / v[c] for x in v]
        for k, row in pivots.items():
            if row[c]:
                pivots[k] = [x - row[c] * y for x, y in zip(row, v)]
        pivots[c] = v
        accepted.append(cid)
    return accepted


COORDINATE_CASES = [
    (l_shape, True), (parallelogram_pi3, True), (isosceles_pi5, True),
    (broken_parallelogram, True), (lambda: _right_triangle(3, 16), True),
    (lambda: _right_triangle(1, 38), False), (lambda: _right_triangle(7, 44), False),
]


@pytest.mark.parametrize("make, exact", COORDINATE_CASES)
def test_crossing_cycle_holonomy_matches_coordinates(make, exact):
    # the plane holonomy is additive on homology, so a crossing cycle's
    # translation must equal the combination its coordinates name
    p = make()
    f = p.frame
    assert f.exact is exact
    epp = build_epp(p)
    leftover, coords = _homology_coords(epp)
    assert len(leftover) == 2 * genus(p)
    assert len(coords) == len(epp.edges) - len(epp.images) + 1
    for cid, x in coords.items():
        combo = f.zero()
        for xj, j in zip(x, leftover):
            combo = combo + epp.edges[j].translation * xj
        assert f.is_zero(epp.edges[cid].translation - combo, p.perimeter_float())


# the polygons of COORDINATE_CASES (its triangles 1/38 and 7/44 among the
# sweep) and every right triangle a/N with a coprime to N below N/2
BASIS_CASES = {
    "l_shape": l_shape,
    "parallelogram_pi3": parallelogram_pi3,
    "isosceles_pi5": isosceles_pi5,
    "broken_parallelogram": broken_parallelogram,
    "triangle_3_16": lambda: _right_triangle(3, 16),
    **{f"triangle_{a}_{n}": (lambda a=a, n=n: _right_triangle(a, n))
       for n in (38, 44, 50, 60) for a in range(1, (n + 1) // 2) if gcd(a, n) == 1},
}


@pytest.mark.parametrize("name", BASIS_CASES)
def test_basis_cycles_are_the_greedy_rank_choice_and_a_z_basis(name):
    # the complement of the longest-first spanning tree is the shortest-first
    # greedy choice over Q, and total unimodularity makes it a Z-basis
    epp = build_epp(BASIS_CASES[name]())
    _leftover, coords = _homology_coords(epp)
    cycles = _basis_cycles(epp)
    assert cycles == _greedy_rank_choice(epp, coords)
    assert _fraction_det([coords[cid] for cid in cycles]) == 1


def test_unfold_loads_no_numpy():
    # the analyze path never calls numpy code, so it must not pay numpy's memory
    code = "import sys, polybilliard.unfold; sys.exit('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(polybilliard.__file__).resolve().parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize("module", ["exactgeom", "unfold", "lattice"])
def test_analyze_path_loads_no_dataclasses(module):
    # the records are plain classes: `dataclasses` and the `inspect` it pulls in
    # cost a fresh CLI process about a quarter of its start-up
    code = (f"import sys, polybilliard.{module}; "
            "sys.exit(sorted({'dataclasses', 'inspect'} & set(sys.modules)) or None)")
    env = {**os.environ, "PYTHONPATH": str(Path(polybilliard.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (0, "")


def test_isometry_compares_and_hashes_by_value():
    f = square().frame
    a = Isometry(False, 1, f.unit(0))
    b = Isometry(reflecting=False, rotation=1, translation=f.unit(0) + f.zero())
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != Isometry(True, 1, f.unit(0)) and a != Isometry(False, 1, f.zero())
    assert Isometry.identity(f) == Isometry(False, 0, f.zero()) and a != (False, 1, f.unit(0))
    assert len({a, b, Isometry.identity(f)}) == 2


def test_pattern_records_compare_by_identity():
    poly = square()
    f = poly.frame
    v = f.unit(0)
    assert Period(v).kind is None and Period(v, kind="structural").kind == "structural"
    assert Period(v) != Period(v)
    pair = EdgePair(1, 2, side=0, translation=v, period=Period(v))
    assert pair == pair and pair != EdgePair(1, 2, 0, v, pair.period)
    image = PolygonImage(index=1, iso=Isometry.identity(f), polygon=poly)
    assert image.parity == 0 and image != _identity_image(poly)
    epp = EPP(poly, [image], [pair], C=1)
    assert epp.edge_pairs == [pair] and epp.image(1) is image
    assert epp != EPP(poly, [image], [pair], 1)


# --- find_pocs and channels -------------------------------------------------

def test_square_poc_directions():
    epp = build_epp(square())
    pocs = find_pocs(epp)
    dirs = {round(d, 9) for d, _ in pocs}
    assert dirs == {0.0, round(math.pi / 2, 9)}
    assert all(per.kind == "simple-internal" for _, per in pocs)


def test_l_shape_poc_directions():
    pocs = find_pocs(build_epp(l_shape()))
    assert {round(d, 9) for d, _ in pocs} == {0.0, round(math.pi / 2, 9)}


def test_parallelogram_vertical_poc():
    # Fig. 2-style channel parallel to the period D1 - D2 (straight up)
    p = parallelogram_pi3()
    pocs = find_pocs(build_epp(p))
    assert any(abs(d - math.pi / 2) < 1e-9 for d, _ in pocs)


def test_structural_periods_excluded_from_pocs():
    p = broken_parallelogram()
    f = p.frame
    epp = build_epp(p)
    poc_vectors = [per.vector for _, per in find_pocs(epp)]
    scale = p.perimeter_float()
    structural = [q.vector for q in epp.periods if q.kind == "structural"]
    assert structural  # the notch must block something
    for v in structural:
        assert not any(_same_vector(f, v, w, scale) for w in poc_vectors)


def test_channel_exists_respects_direction():
    # the unit square pattern tiles a 2x2 torus: both axis channels are open,
    # and no channel closes under a translation that is not a period
    p = square()
    f = p.frame
    epp = build_epp(p)
    assert channel_exists(epp, f.from_xy(2, 0))
    assert channel_exists(epp, f.from_xy(0, 2))
    assert not channel_exists(epp, f.from_xy(1, 0))


def _count_channel_tests(monkeypatch) -> list:
    calls = []
    real = unfold.channel_exists

    def counting(epp, vector):
        calls.append(vector)
        return real(epp, vector)

    monkeypatch.setattr(unfold, "channel_exists", counting)
    return calls


@pytest.mark.parametrize("make", [l_shape, broken_parallelogram])
def test_periods_trace_each_distinct_period_once(make, monkeypatch):
    calls = _count_channel_tests(monkeypatch)
    p = make()
    f, scale = p.frame, p.perimeter_float()
    epp = build_epp(p)
    assert calls == []
    periods = epp.periods
    assert len(calls) == len(periods) < len(epp.edge_pairs)
    for i, a in enumerate(periods):
        assert not any(f.is_zero(a.vector - b.vector, scale) for b in periods[:i])
    # every pair maps to the classified period of its group
    for e in epp.edge_pairs:
        assert epp._period_of[e] in periods
        assert f.is_zero(e.period.vector - epp._period_of[e].vector, scale)
    assert all(e.period.kind is None for e in epp.edge_pairs)
    assert all(q.kind in ("simple-internal", "structural") for q in periods)


def test_find_pocs_on_classified_pattern_traces_nothing(monkeypatch):
    epp = build_epp(broken_parallelogram())
    epp.periods
    calls = _count_channel_tests(monkeypatch)
    pocs = find_pocs(epp)
    period_basis(epp)
    epp.dump()
    assert pocs and calls == []


def test_channel_work_is_shared_across_readers(monkeypatch):
    # 204 images: find_pocs, period_basis and dump share one trace per
    # distinct period, and dump prints every pair's decided kind
    calls = _count_channel_tests(monkeypatch)
    epp = build_epp(_right_triangle(1, 102))
    assert len(epp.images) == 204
    find_pocs(epp)
    period_basis(epp)
    text = epp.dump()
    assert len(calls) == len(epp.periods) == 53
    assert "[None]" not in text


def test_period_basis_decides_only_the_kinds_it_reads(monkeypatch):
    # the basis periods match some of the groups of equal boundary
    # translations; only those groups' channels are decided
    calls = _count_channel_tests(monkeypatch)
    epp = build_epp(broken_parallelogram())
    basis = period_basis(epp)
    asked = len(calls)
    # reading every kind afterwards decides the rest, each once
    periods = epp.periods
    assert 0 < asked < len(periods) == len(calls)
    # and agrees with a pattern that decided every kind before its basis
    fresh = build_epp(broken_parallelogram())
    assert [p.kind for p in periods] == [p.kind for p in fresh.periods]
    assert [(repr(p.vector), p.kind) for p in basis] == [
        (repr(p.vector), p.kind) for p in period_basis(fresh)
    ]


def test_find_pocs_unclassified_traces_each_period_once(monkeypatch):
    p = isosceles_pi5()
    expected = [(d, repr(per.vector)) for d, per in find_pocs(build_epp(p))]
    epp = build_epp(p)
    calls = _count_channel_tests(monkeypatch)
    got = [(d, repr(per.vector)) for d, per in find_pocs(epp)]
    assert got == expected
    assert len(calls) == len(epp.periods)


# the sampled decision that `channel_exists` replaced, kept as an oracle
_SAMPLES = 33  # the sampled oracle starts traces at _SAMPLES - 1 points per boundary edge
_MAX_STEPS = 100000  # edge crossings one sampled trace may make before it gives up


def _sampled_trace_closes(epp, face0, z0, target) -> bool:
    """March a straight line of length |target| from z0 and test closure."""
    f = epp.polygon.frame
    scale = epp.polygon.perimeter_float()
    tol = 1e-9 * max(1.0, scale)
    tgt = f.to_complex(target)
    total = abs(tgt)
    u = tgt / total
    cur, face = z0, face0
    offset = f.zero()
    remaining = total
    for _ in range(_MAX_STEPS):
        verts = [a for a, _d, _len in epp._sides_float[face - 1]]
        n = len(verts)
        best_s, best_side, best_r = None, None, None
        for t in range(n):
            a, b = verts[t], verts[(t + 1) % n]
            d = b - a
            denom = (u.conjugate() * d).imag
            if abs(denom) < 1e-13:
                continue
            w = a - cur
            s_hit = (w.conjugate() * d).imag / denom
            r_hit = (w.conjugate() * u).imag / denom
            if s_hit <= tol or r_hit < -1e-9 or r_hit > 1 + 1e-9:
                continue
            if best_s is None or s_hit < best_s:
                best_s, best_side, best_r = s_hit, t, r_hit
        if best_s is None:
            return False
        if remaining <= best_s - tol:
            return False  # endpoint strictly inside a face: cannot match z0 on its edge
        edge_len = abs(verts[(best_side + 1) % len(verts)] - verts[best_side])
        if min(best_r, 1 - best_r) * edge_len < tol:
            return False  # corner hit: sample invalid
        nxt, t_cross = epp.gluing[(face, best_side)]
        cur = cur + best_s * u - f.to_complex(t_cross)
        offset = offset + t_cross
        face = nxt
        remaining -= best_s
        if abs(remaining) <= tol:
            if face != face0:
                return False
            if not f.is_zero(offset - target, scale):
                return False
            return abs(cur - z0) <= 1e-6 * max(1.0, scale)
    raise ConvergenceFailure(f"sampled trace made {_MAX_STEPS} edge crossings without closing")


def _sampled_channel_exists(epp, vector) -> bool:
    """The sampled sufficient check that `channel_exists` replaced: traces
    from `_SAMPLES - 1` evenly spaced points on every boundary edge, in both
    directions.  True is a proof (up to float tracing); False only means
    that no sample closed."""
    f = epp.polygon.frame
    tgt = f.to_complex(vector)
    for e in epp.edge_pairs:
        for face in (e.a, e.b):
            verts = [a for a, _d, _len in epp._sides_float[face - 1]]
            a, b = verts[e.side], verts[(e.side + 1) % len(verts)]
            ccw = not epp.image(face).iso.reflecting
            d = (b - a) / abs(b - a)
            for j in range(1, _SAMPLES):
                z = a + (b - a) * (j / _SAMPLES)
                for sign in (1, -1):
                    u = sign * tgt / abs(tgt)
                    inward = (d.conjugate() * u).imag
                    if not ccw:
                        inward = -inward
                    if inward < 1e-9:
                        continue
                    if _sampled_trace_closes(epp, face, z, vector if sign > 0 else -vector):
                        return True
    return False


def _separatrix_count(monkeypatch) -> list:
    # a cut march starts at a corner of its face, a test march inside a side
    starts = []
    real = unfold._march

    def counting(epp, face, side, r, u, length):
        starts.append(r == 0.0)
        return real(epp, face, side, r, u, length)

    monkeypatch.setattr(unfold, "_march", counting)
    return starts


def _middle_march_closes(epp, vector) -> bool:
    """Does the sampled trace from the middle of some boundary side close?"""
    tgt = epp.polygon.frame.to_complex(vector)
    for e in epp.edge_pairs:
        for face in (e.a, e.b):
            verts = [a for a, _d, _len in epp._sides_float[face - 1]]
            a, b = verts[e.side], verts[(e.side + 1) % len(verts)]
            inward = ((b - a).conjugate() * tgt).imag
            if epp.image(face).iso.reflecting:
                inward = -inward
            if inward > 1e-9 * abs(b - a) * abs(tgt) and _sampled_trace_closes(
                epp, face, a + (b - a) * 0.5, vector
            ):
                return True
    return False


def test_channel_marches_at_most_one_separatrix_per_sector(monkeypatch):
    # 2g-2+V: each direction enters k corner sectors at a vertex class of
    # cone angle 2*pi*k, and the k-1 summed over the V classes give 2g-2
    p = broken_parallelogram()
    f = p.frame
    epp = build_epp(p)
    bound = 2 * genus(p) - 2 + len(set(_vertex_classes(epp).values()))
    assert bound == 24
    starts = _separatrix_count(monkeypatch)
    # a "no" direction parallel to no side: every sector counts
    assert not channel_exists(epp, f.from_xy(3, 1))
    assert sum(starts) == bound
    closed_at_middle = 0
    for per in epp.periods:
        starts.clear()
        channel_exists(epp, per.vector)
        assert sum(starts) <= bound
        if _middle_march_closes(epp, per.vector):
            # a side's middle march proves the channel before any cut
            assert sum(starts) == 0
            closed_at_middle += 1
    assert 0 < closed_at_middle < len(epp.periods)


def test_no_verdict_marches_once_per_orbit(monkeypatch):
    # the longest structural period of the broken parallelogram: 22 side
    # middles and 24 separatrices, then one march for each of the 34 cut
    # pieces that no failed march crossed; 138 marches when each of 92
    # pieces took its own
    p = broken_parallelogram()
    epp = build_epp(p)
    per = max((q for q in epp.periods if q.kind == "structural"),
              key=lambda q: abs(_vec(p.frame, q.vector)))
    starts = _separatrix_count(monkeypatch)
    assert not channel_exists(epp, per.vector)
    assert sum(starts) == 24
    assert len(starts) == 80


@settings(max_examples=200, deadline=None)
@given(
    cells=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=12),
    offsets=st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.5, 1.0, -1.0, 0.999999, 1.000001, 2.0, -0.5, 1e-7]),
            st.sampled_from([0.0, 0.5, 1.0, -1.0, 0.999999, 1.000001, 2.0, -0.5, 1e-7]),
            st.sampled_from([-2, -1, 0, 1, 2]),
        ),
        min_size=12, max_size=12,
    ),
    base=st.sampled_from([0j, 1 + 1j, -2.5 + 0.75j, 1e3 - 1e3j]),
)
def test_float_period_index_matches_linear_scan(cells, offsets, base):
    # vectors on the borders of cells of side r and 2r, r the is_zero
    # radius, a few ulps either side, and within r of one another
    p = _right_triangle(1, 38)
    f = p.frame
    assert not f.exact
    scale = p.perimeter_float()
    r = 1e-9 * max(1.0, scale)
    vectors = []
    for (i, j), (dx, dy, ulps) in zip(cells, offsets):
        x = base.real + (i + dx) * r
        y = base.imag + (j + dy) * r
        vectors.append(complex(x + ulps * math.ulp(x), y - ulps * math.ulp(y)))
    pairs = [EdgePair(1, 1, 0, v, Period(v)) for v in vectors]
    epp = EPP(p, [], pairs, 1)
    scan: list[list[int]] = []
    for k, v in enumerate(vectors):
        g = next((g for g in scan if f.is_zero(v - vectors[g[0]], scale)), None)
        if g is None:
            scan.append([k])
        else:
            g.append(k)
    assert [[pairs.index(e) for e in g] for g in epp._groups] == scan
    for (dx, dy, _u) in offsets:
        w = vectors[0] + complex(dx, dy) * r
        want = next((i for i, g in enumerate(scan) if f.is_zero(w - vectors[g[0]], scale)), None)
        assert epp._group_of(w) == want


def test_long_period_is_tested_from_its_own_pairs_first(monkeypatch):
    # 500 images: the longest boundary translation closes at the first
    # middle march, from one of its own pairs, after 250 crossings; in
    # discovery order 241 middle marches of other pairs came before it
    epp = build_epp(_right_triangle(1, 250))
    f = epp.polygon.frame
    v = max((e.period.vector for e in epp.edge_pairs), key=lambda v: abs(f.to_complex(v)))
    starts = _separatrix_count(monkeypatch)
    assert channel_exists(epp, v)
    assert starts == [False]


def test_edge_pairs_are_computed_once():
    epp = build_epp(_right_triangle(1, 24))
    assert epp.edge_pairs is epp.edge_pairs


def _float_point_march(epp, face, z, u, length):
    """The march that `_march` replaced, as a reference: it carries a float
    point z, shifts it by the float gluing translation at each crossing and
    tells the side it has just entered by distance alone (an exit lies
    farther than the tolerance).  Returns every crossing, interior ones
    too, and the end image, None at a corner."""
    tol = 1e-9 * max(1.0, epp._scale)
    uc = u.conjugate()
    crossings = []
    while True:
        best = None
        for t, (a, d, side_len) in enumerate(epp._sides_float[face - 1]):
            denom = (uc * d).imag
            if abs(denom) < 1e-13:
                continue
            wc = (a - z).conjugate()
            s_hit = (wc * d).imag / denom
            r_hit = (wc * u).imag / denom
            if s_hit > tol and -1e-9 <= r_hit <= 1 + 1e-9 and (best is None or s_hit < best[0]):
                best = (s_hit, t, r_hit, side_len)
        if best is None:
            raise RuntimeError(f"march from {z:.12g} finds no exit from image {face}")
        s_hit, side, r, side_len = best
        if length < s_hit - tol:
            return crossings, face
        if min(r, 1 - r) * side_len < tol:
            return crossings, None
        crossings.append((face, side, r))
        face, t_cross = epp.gluing[(face, side)]
        z = z + s_hit * u - complex(t_cross)
        length -= s_hit


MARCH_CASES = [name for name in VERTEX_CASES
               if name.endswith(".json") or name.startswith("triangle_")]


def _assert_same_march(epp, face, side, r, u, length):
    a, d, _len = epp._sides_float[face - 1][side]
    want, want_end = _float_point_march(epp, face, a + d * r, u, length)
    got, end = unfold._march(epp, face, side, r, u, length)
    want = [c for c in want if epp.gluing[c[:2]][1]]
    assert end == want_end
    assert [c[:2] for c in got] == [c[:2] for c in want]
    assert all(abs(c[2] - w[2]) <= 1e-9 for c, w in zip(got, want))


@pytest.mark.parametrize("name", MARCH_CASES)
def test_march_matches_the_float_point_march(name):
    # along every distinct period, from the middle of every side of every
    # image into the image, and from every corner into its sector, both
    # marches cross the same boundary sides at the same positions and end
    # in the same image
    epp = build_epp(VERTEX_CASES[name]())
    angles = epp.polygon.angles
    marches = 0
    for per in epp.periods:
        tgt = complex(per.vector)
        length = abs(tgt)
        for k, sides in enumerate(epp._sides_float, 1):
            reflecting = epp.image(k).iso.reflecting
            for side, (_a, d, side_len) in enumerate(sides):
                cross = ((d / side_len).conjugate() * tgt).imag / length
                if abs(cross) > 1e-9:
                    # into image k: left of its side, or right when it is reflecting
                    u = tgt / length if (cross > 0) != reflecting else -tgt / length
                    _assert_same_march(epp, k, side, 0.5, u, length)
                    marches += 1
                # the sector at corner `side` turns counterclockwise from `start`
                start = -sides[side - 1][1] if reflecting else d
                for u in (tgt / length, -tgt / length):
                    if 1e-9 < cmath.phase(u / start) % (2 * math.pi) < angles[side - 1].radians() - 1e-9:
                        _assert_same_march(epp, k, side, 0.0, u, length)
    assert marches > 0


def test_march_knows_the_entered_side_by_index():
    # triangle 3/2000, from the middle of side 1 of image 1340 along a basis
    # period: the exit from image 1883 lies 1.99e-9 away, inside the 2.0e-9
    # tolerance by which the float-point march told the side it had entered
    epp = build_epp(_right_triangle(3, 2000))
    face, side, r = 1340, 1, 0.5
    u, length = 0.00471237153937703 + 0.999988896715596j, 1.9999777934312393
    a, d, _len = epp._sides_float[face - 1][side]
    with pytest.raises(RuntimeError, match="image 1883"):
        _float_point_march(epp, face, a + d * r, u, length)
    t0 = time.perf_counter()
    assert unfold._march(epp, face, side, r, u, length) == ([], 3995)
    assert time.perf_counter() - t0 < 0.5


def test_march_without_exit_gives_up(monkeypatch, capsys):
    # a march that cannot leave its image is a search that gave up, exit 5,
    # and must not read as "no channel"; here every side of every image lies
    # on the line of side 0, which the march stands on, so none lies ahead
    real = EPP._sides_float.func
    monkeypatch.setattr(EPP, "_sides_float", property(
        lambda epp: [[sides[0]] * len(sides) for sides in real(epp)]))
    epp = build_epp(square())
    with pytest.raises(ConvergenceFailure, match="no exit"):
        channel_exists(epp, epp.polygon.frame.from_xy(1, 1))
    assert cli.run(["analyze", str(POLYGONS / "square.json")]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert "no exit" in err


def test_narrow_channel_missed_by_sampling_is_found():
    # the period (113/20, 0) runs through the bottom arm, 1/8 high; samples
    # every 73/264 on the 73/8 left side never start an orbit in the arm
    p = l_shape(Fraction(6, 5), Fraction(1, 8), Fraction(113, 40), Fraction(73, 8))
    f = p.frame
    epp = build_epp(p)
    arm = next(q for q in epp.periods if f.is_zero(q.vector - f.from_xy(Fraction(113, 20), 0)))
    assert arm.kind == "simple-internal"
    assert not _sampled_channel_exists(epp, arm.vector)
    assert any(d == 0.0 and per is arm for d, per in find_pocs(epp))


# SHA-256 of repr([(direction, repr(vector), kind), ...]) from find_pocs, recorded
# while find_pocs still traced every distinct period itself.
FIND_POCS_SHA256 = {
    "broken_rectangle.json": "103107e8ca0f98230502eeaee7d833aff05fa2b4de0b5cbfc19e491120e141fd",
    "broken_rectangle_199_100.json": "8e122539ac88958ad475211dc0330d4f607ab4d44e631ca4b9433db53f217726",
    "broken_rectangle_3_2.json": "629ec1be3796bc085f4e082f874ceda3b4fc8346603808429a47877a4cc5b754",
    "equilateral.json": "c323f1197089241e77073ac21525ab5bef8b1a78730677cf8e326c91f27f4f98",
    "isosceles_pi5.json": "b85c5869df34adaaad3244b35430548a08efb06d9a15c10399fba59a504ec187",
    "parallelogram_2_3.json": "a5300a8c57b5c4721560c68c8feed0c0d70bb59740dd7f7053271882c71d5ae7",
    "rhombus.json": "954b30a7173bc8face639f1d32864d27a4e7bbec75709cdaad1a1ba217f58761",
    "square.json": "dc7940d3330e94dc36834e26a9828f93466fc99384b7c18403254ff107150734",
    "square": "dc7940d3330e94dc36834e26a9828f93466fc99384b7c18403254ff107150734",
    "l_shape": "103107e8ca0f98230502eeaee7d833aff05fa2b4de0b5cbfc19e491120e141fd",
    "parallelogram_pi3": "a5300a8c57b5c4721560c68c8feed0c0d70bb59740dd7f7053271882c71d5ae7",
    "equilateral": "c323f1197089241e77073ac21525ab5bef8b1a78730677cf8e326c91f27f4f98",
    "isosceles_pi5": "b85c5869df34adaaad3244b35430548a08efb06d9a15c10399fba59a504ec187",
    "broken_parallelogram": "7b7b06a721fce996e214ff2ab6a2863de9cd1a23fb87e09e267bf56b7c4b6fa4",
    "rectangle": "762a1805a769e55bd8bbc49bfe106815a9f764043550ac7a0bc30a2845fdad99",
}
POCS_SHAPES = {
    "square": square,
    "l_shape": l_shape,
    "parallelogram_pi3": parallelogram_pi3,
    "equilateral": equilateral,
    "isosceles_pi5": isosceles_pi5,
    "broken_parallelogram": broken_parallelogram,
    "rectangle": lambda: rectangle(3, 2),
}


@pytest.mark.parametrize("name", sorted(FIND_POCS_SHA256))
def test_find_pocs_output_unchanged(name):
    p = POCS_SHAPES[name]() if name in POCS_SHAPES else load_polygon(str(POLYGONS / name))
    text = repr([(d, repr(per.vector), per.kind) for d, per in find_pocs(build_epp(p))])
    assert hashlib.sha256(text.encode()).hexdigest() == FIND_POCS_SHA256[name]


# --- property sweeps --------------------------------------------------------

_SIDE = st.fractions(min_value=Fraction(1, 3), max_value=2, max_denominator=6)


@settings(max_examples=12, deadline=None)
@given(
    polygon=st.one_of(
        st.builds(lambda x1, dx, y1, dy: l_shape(x1, y1, x1 + dx, y1 + dy), _SIDE, _SIDE, _SIDE, _SIDE),
        st.builds(parallelogram_pi3, st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=8)),
    )
)
def test_pair_kind_matches_direct_channel_test(polygon):
    epp = build_epp(polygon)
    for e in epp.edge_pairs:
        direct = channel_exists(epp, e.period.vector)
        assert epp._period_of[e].kind == ("simple-internal" if direct else "structural")
    # sampling can miss a narrow channel but never invents one
    for per in epp.periods:
        if _sampled_channel_exists(epp, per.vector):
            assert per.kind == "simple-internal"

# --- property sweeps --------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(
    w=st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=8),
    h=st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=8),
)
def test_rectangle_periods_double_the_sides(w, h):
    p = rectangle(w, h)
    f = p.frame
    assert genus(p) == 1
    basis = period_basis(build_epp(p))
    assert len(basis) == 2
    vs = sorted(basis, key=lambda b: abs(_vec(f, b.vector).imag))
    assert f.is_zero(vs[0].vector - f.from_xy(2 * w, 0))
    assert f.is_zero(vs[1].vector - f.from_xy(0, 2 * h))


def _axis_lattice_contains(lengths: list[Fraction], target: Fraction) -> bool:
    den = lcm(*(x.denominator for x in lengths))
    g = Fraction(gcd(*(int(x * den) for x in lengths)), den)
    return (target / g).denominator == 1


@settings(max_examples=15, deadline=None)
@given(
    x1=st.fractions(min_value=Fraction(1, 3), max_value=2, max_denominator=6),
    dx=st.fractions(min_value=Fraction(1, 3), max_value=2, max_denominator=6),
    y1=st.fractions(min_value=Fraction(1, 3), max_value=2, max_denominator=6),
    dy=st.fractions(min_value=Fraction(1, 3), max_value=2, max_denominator=6),
)
def test_l_shape_family_lattice(x1, dx, y1, dy):
    x2, y2 = x1 + dx, y1 + dy
    p = l_shape(x1, y1, x2, y2)
    f = p.frame
    assert genus(p) == 2
    basis = period_basis(build_epp(p))
    assert len(basis) == 4
    xs, ys = [], []
    for b in basis:
        rx = f.rational_value(b.vector.real)
        ry = f.rational_value(b.vector.imag)
        assert rx is not None and ry is not None
        assert rx == 0 or ry == 0  # axis-aligned in a rectilinear billiard
        (xs if ry == 0 else ys).append(rx if ry == 0 else ry)
    assert len(xs) == 2 and len(ys) == 2
    # the doubled side lengths all belong to the period lattice
    for target in (2 * x1, 2 * x2):
        assert _axis_lattice_contains(xs, target)
    for target in (2 * y1, 2 * y2):
        assert _axis_lattice_contains(ys, target)
