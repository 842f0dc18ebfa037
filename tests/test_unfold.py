"""Unfolding: image orbits, elementary patterns, genus, periods, channels."""

import cmath
import hashlib
import math
import os
import subprocess
import sys
import time
import tracemalloc
import weakref
from collections import defaultdict, deque
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import polybilliard
from polybilliard import cli, exactgeom, unfold
from polybilliard.errors import (
    BilliardError,
    ConvergenceFailure,
    NonIntegerGenus,
    OutOfRange,
    RankMismatch,
    UnquantizedMomentum,
)
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
from polybilliard.exactgeom import (
    ExactFrame,
    RationalAngle,
    load_polygon,
    solve_closure,
    validate_polygon,
)
from polybilliard.lattice import period_lattice
from polybilliard.quantize import momentum_aperiodic
from polybilliard.swf import compile_swf, enumerate_prescriptions
from polybilliard.unfold import (
    EPP,
    EdgePair,
    Period,
    build_epp,
    channel_exists,
    find_pocs,
    genus,
    period_basis,
)
from polybilliard.unfold import _basis_cycles, _closes, _find, _half_plane, _re_is_zero

POLYGONS = Path(__file__).resolve().parent.parent / "polygons"


def _vec(frame, v) -> complex:
    return frame.to_complex(v)


def _same_vector(frame, a, b, scale=1.0) -> bool:
    return frame.is_zero(a - b, scale)


# --- a queue-of-slots unfolding, the reference for build_epp's walk ----------
#
# An isometry is a (reflecting, rotation, translation) tuple, as in
# `EPP.images`: z -> unit(rotation) * (conj z if reflecting else z) + translation.

def _identity(frame) -> tuple:
    return (False, 0, frame.zero())


def _apply(iso: tuple, frame, z):
    """iso(z): conjugate z if iso reflects, rotate it, then translate."""
    reflecting, rotation, translation = iso
    w = z.conjugate() if reflecting else z
    return frame.rotate(w, rotation) + translation


def _transport(iso: tuple, j: int, frame) -> int:
    """Direction index of the image under iso of a vector with direction index j."""
    reflecting, rotation, _t = iso
    if reflecting:
        return (rotation - j) % (2 * frame.N)
    return (rotation + j) % (2 * frame.N)


def _mirror(iso: tuple, polygon, s: int) -> tuple:
    """The isometry of the mirror copy, across its side s, of the image placed by iso.

    That is the reflection across the line of the image's side s, through
    its corner p0 = iso(vertex s), composed after iso.  `build_epp` makes
    the same frame operations in the same order.
    """
    f = polygon.frame
    reflecting, rotation, translation = iso
    r = 2 * _transport(iso, polygon.dirs[s], f) % (2 * f.N)
    p0 = _apply(iso, f, polygon.verts[s])
    t = f.rotate(translation.conjugate(), r) + (p0 - f.rotate(p0.conjugate(), r))
    return (not reflecting, (r - rotation) % (2 * f.N), t)


def _queue_unfolding(polygon):
    """Breadth-first unfolding over a queue of slots (image, side), one image per orientation.

    Returns the image isometries, the gluings as (a, b, side, translation,
    interior) and the face tree, each image's creating gluing index (None
    for image 1), in the order the queue finds them: the reference
    `build_epp`'s walk over its image list is checked against.
    """
    f, n = polygon.frame, polygon.n
    scale = polygon.perimeter_float()
    isos = [_identity(f)]
    by_orient = {(False, 0): 0}  # -> index in isos
    glued = [False] * n  # slot k*n + s: side s of image k + 1
    edges, face_tree = [], [None]
    queue = deque(range(n))
    while queue:
        slot = queue.popleft()
        if glued[slot]:
            continue
        k, s = divmod(slot, n)
        cand = _mirror(isos[k], polygon, s)
        other = by_orient.get(cand[:2])
        if other is None:
            other = by_orient[cand[:2]] = len(isos)
            isos.append(cand)
            face_tree.append(len(edges))
            edges.append((k + 1, other + 1, s, f.zero(), True))
            glued += [False] * n
            queue.extend(range(other * n, other * n + n))
        else:
            t = cand[2] - isos[other][2]
            interior = f.is_zero(t, scale)
            edges.append((k + 1, other + 1, s, f.zero() if interior else t, interior))
        glued[slot] = glued[other * n + s] = True
    return isos, edges, face_tree


def test_reflect_square_bottom_is_conjugation():
    p = square()
    reflecting, rotation, t = _mirror(_identity(p.frame), p, 0)
    assert reflecting is True
    assert rotation == 0
    assert p.frame.is_zero(t)


def test_reflect_twice_is_identity():
    p = square()
    reflecting, rotation, t = _mirror(_mirror(_identity(p.frame), p, 0), p, 0)
    assert reflecting is False
    assert rotation == 0
    assert p.frame.is_zero(t)


def test_reflect_adjacent_edges_gives_vertex_rotation():
    # two mirrors meeting at angle (p/q)*pi compose to a rotation by 2(p/q)*pi
    # about the shared vertex; for the square that is a half-turn about (1,0)
    p = square()
    f = p.frame
    iso = _mirror(_mirror(_identity(f), p, 0), p, 1)
    assert iso[0] is False
    assert iso[1] == p.N  # pi in units of pi/N
    v = f.from_xy(1, 0)
    assert f.is_zero(_apply(iso, f, v) - v)


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
        orientations = {(reflecting, rotation) for reflecting, rotation, _t in epp.images}
        assert len(orientations) == len(epp.images)


def test_epp_base_image_is_identity():
    epp = build_epp(parallelogram_pi3())
    reflecting, rotation, t = epp.images[0]
    assert reflecting is False
    assert rotation == 0
    assert epp.polygon.frame.is_zero(t)


def test_epp_every_side_has_c_copies():
    for mk in (square, l_shape, parallelogram_pi3, broken_parallelogram):
        epp = build_epp(mk())
        for s in range(epp.polygon.n):
            assert sum(1 for e in epp.edges if e.side == s) == epp.C


def _crossing(epp, k, s):
    """(next image, translation) of crossing side s out of image k, read off its gluing tuple."""
    a, b, _s, t = epp.gluings[epp.slots[(k - 1) * epp.polygon.n + s]]
    return (b, t) if k == a else (a, -t)


def test_epp_gluing_covers_every_slot():
    # each slot's gluing glues that slot, and each gluing holds exactly its two slots
    for mk in (l_shape, square, isosceles_pi5, broken_parallelogram):
        epp = build_epp(mk())
        n = epp.polygon.n
        assert len(epp.slots) == n * len(epp.images) and epp.slots is epp.slots
        held = defaultdict(list)
        for slot, cid in enumerate(epp.slots):
            k, s = divmod(slot, n)
            a, b, side, _t = epp.gluings[cid]
            assert side == s and k + 1 in (a, b)
            held[cid].append(slot)
        assert sorted(held) == list(range(len(epp.gluings)))
        for cid, (a, b, s, _t) in enumerate(epp.gluings):
            assert a != b and held[cid] == sorted([(a - 1) * n + s, (b - 1) * n + s])
    # crossing a pair and crossing it back cancels the translation
    epp = build_epp(l_shape())
    f = epp.polygon.frame
    for k in range(1, len(epp.images) + 1):
        for s in range(epp.polygon.n):
            j, t = _crossing(epp, k, s)
            back, t_back = _crossing(epp, j, s)
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


class _AngleList:
    """What `genus` reads of a polygon: its angles and N, the lcm of their denominators."""

    def __init__(self, pqs):
        self.angles = [RationalAngle(p, q) for p, q in pqs]
        self.N = lcm(*(a.q for a in self.angles))

    def __repr__(self) -> str:
        return f"<angles {[str(a) for a in self.angles]}>"


_REDUCED_ANGLE = st.tuples(st.integers(1, 40), st.integers(1, 40)).filter(
    lambda pq: pq[0] < 2 * pq[1] and gcd(*pq) == 1)


@settings(max_examples=300, deadline=None)
@given(st.lists(_REDUCED_ANGLE, min_size=3, max_size=8))
@example([(2, 3)] * 3)  # 2(g - 1) = 3: no integer genus
@example([(1, 2)] * 4)
def test_genus_is_the_fraction_formula(pqs):
    angles = _AngleList(pqs)
    g = 1 + Fraction(angles.N, 2) * sum(Fraction(a.p - 1, a.q) for a in angles.angles)
    if g.denominator == 1:
        assert genus(angles) == g
    else:
        with pytest.raises(NonIntegerGenus) as raised:
            genus(angles)
        assert str(raised.value) == f"genus formula gave {g} for {angles!r}"


def test_unfolding_past_memory_is_refused_before_any_image(monkeypatch):
    # 2000 images cannot fit in 100 kB of "physical memory"; build_epp must
    # say so before its walk mirrors the first image
    p = right_triangle_rationalized()
    pages = {"SC_PHYS_PAGES": 25, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", lambda name: pages[name])

    def no_mirror(*_args):
        raise AssertionError("an image was mirrored")

    monkeypatch.setattr(type(p.frame), "mirror", no_mirror)
    with pytest.raises(OutOfRange, match="the 2000 images of the unfolding are more than memory can hold"):
        build_epp(p)


def test_unfolding_memory_figure_bounds_what_the_walk_stores(monkeypatch):
    # the bytes per image that the refusal counts are at most what the walk
    # holds at its peak per image, so an unfolding that fits is never
    # refused, and at least half of it, so the refusal is not a gross
    # lower bound: triangle 1/10000, 20,000 images
    angles = [Fraction(1, 10000), Fraction(1, 2), Fraction(4999, 10000)]
    p = validate_polygon(angles, [1, None, None])
    figures = []
    real = unfold._refuse_past_memory

    def capture(count, item_bytes, what):
        figures.append(item_bytes)
        real(count, item_bytes, what)

    monkeypatch.setattr(unfold, "_refuse_past_memory", capture)
    tracemalloc.start()
    try:
        epp = build_epp(p)
        peak = tracemalloc.get_traced_memory()[1] / len(epp.images)
    finally:
        tracemalloc.stop()
    assert len(epp.images) == 20000 and len(figures) == 1
    assert peak / 2 <= figures[0] <= peak


def test_reading_every_kind_holds_no_more_than_the_pattern():
    # reading every basis kind on triangle 1/20000, 40,000 images, builds
    # the tables a march reads (the slot table, the boundary groups and
    # their index) and marches 10,000 channels: at its traced peak it holds
    # at most as much again as `build_epp` and `period_basis` hold.  A ratio,
    # not bytes, so that the Python versions agree; it was 1.37 when the
    # march read a dict of every (image, side) slot, and is about 0.6
    angles = [Fraction(1, 20000), Fraction(1, 2), Fraction(9999, 20000)]
    p = validate_polygon(angles, [1, None, None])
    tracemalloc.start()
    try:
        epp = build_epp(p)
        basis = period_basis(epp)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        kinds = [q.kind for q in basis]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(epp.images) == 40000 and kinds == ["simple-internal"] * 10000
    assert (peak - held) / held <= 1


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
    assert kinds <= {"simple-internal", "structural"}
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
            shifted = img[2] + b.vector
            mates = [other for other in epp.images if other[:2] == img[:2]]
            assert len(mates) == 1
            d = shifted - mates[0][2]
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


def _vertex_classes(epp: EPP) -> dict[tuple[int, int], int]:
    """(image, vertex) -> id of the glued vertex of the surface at that corner.

    The components of the relation the gluings put on the corners, by
    union-find: a gluing of side s joins corner s of its two images, and
    corner s+1.  The ids number the classes by their first corner, image by
    image.  `_basis_cycles` grows the same forest and counts its roots; this
    reference names the classes, for the tests that read them.
    """
    n = epp.polygon.n
    root = list(range(n * len(epp.images)))  # corner (k, i) at (k - 1) * n + i
    for e in epp.edges:
        for i in (e.side, (e.side + 1) % n):
            root[_find(root, (e.a - 1) * n + i)] = _find(root, (e.b - 1) * n + i)
    ids: dict[int, int] = {}
    return {(c // n + 1, c % n): ids.setdefault(_find(root, c), len(ids)) for c in range(len(root))}


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
            cur, t = _crossing(epp, cur, i if step % 2 == 0 else (i - 1) % n)
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
    bfs = _bfs_face_tree(epp)
    assert list(bfs) == list(range(1, len(epp.images) + 1))
    assert [None if cid is None else (epp.gluings[cid][0], cid) for cid in tree] == list(bfs.values())
    for k, cid in enumerate(tree[1:], 2):
        e = epp.edges[cid]
        assert e.period is None and e.b == k and e.a < k


def _bits(v) -> str:
    """repr of a frame vector; a field element's lists its monomials in storage
    order too, the order `complex()` sums them in."""
    return repr(v) if isinstance(v, complex) else f"{v!r} {list(v.num.items())}"


def _assert_walk_equals_the_queue(p):
    """build_epp's images, gluings and face tree are the queue's, to the
    float bit and the monomial order."""
    epp = build_epp(p)
    isos, edges, face_tree = _queue_unfolding(p)
    assert [(r, rot, _bits(t)) for r, rot, t in epp.images] == [
        (r, rot, _bits(t)) for r, rot, t in isos
    ]
    assert [(a, b, side, _bits(t), not t) for a, b, side, t in epp.gluings] == [
        (a, b, side, _bits(t), interior) for a, b, side, t, interior in edges
    ]
    assert epp.face_tree == face_tree


@pytest.mark.parametrize("name, force_exact", [
    *((name, False) for name in VERTEX_CASES), ("triangle_1_20", True), ("triangle_3_44", True),
])
def test_walk_equals_the_queue_unfolding(name, force_exact, monkeypatch):
    # the walk over the image list finds the images, gluings and face tree
    # of the queue of slots
    if force_exact:
        monkeypatch.setattr(exactgeom, "EXACT_DEGREE_LIMIT", 10**6)
    p = VERTEX_CASES[name]()
    assert p.frame.exact or not force_exact
    _assert_walk_equals_the_queue(p)


@st.composite
def _rational_polygons(draw):
    """Angles and lengths of a triangle a/N, b/N, N <= 60, with a unit side 0,
    or of a quadrilateral with three angles p/q, q <= 12, the fourth closing,
    and sides 0 and 1 of lengths p/q, p, q <= 6; closure solves the rest."""
    if draw(st.booleans()):
        n = draw(st.integers(3, 60))
        a = draw(st.integers(1, n - 2))
        b = draw(st.integers(1, n - 1 - a))
        return [Fraction(a, n), Fraction(b, n), Fraction(n - a - b, n)], [1, None, None]
    qs = draw(st.lists(st.sampled_from([2, 3, 4, 5, 6, 8, 10, 12]), min_size=3, max_size=3))
    angles = [Fraction(draw(st.integers(1, 2 * q - 1)), q) for q in qs]
    angles.append(2 - sum(angles))
    assume(all(0 < x < 2 and x != 1 for x in angles))
    lengths = [Fraction(draw(st.integers(1, 6)), draw(st.integers(1, 6))) for _ in range(2)]
    return angles, lengths + [None, None]


@settings(max_examples=150, deadline=None)
@given(_rational_polygons(), st.sampled_from([0, 10**6]))
def test_walk_equals_the_queue_unfolding_on_random_polygons(drawn, degree_limit):
    # in a float frame (degree limit 0) and in an exact one however large
    angles, lengths = drawn
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactgeom, "EXACT_DEGREE_LIMIT", degree_limit)
        try:
            p = validate_polygon(angles, lengths)
        except BilliardError:
            assume(False)
    assert p.frame.exact == bool(degree_limit)
    _assert_walk_equals_the_queue(p)


def test_analyze_path_makes_no_edge_record(monkeypatch, capsys, tmp_path):
    # no reader in the package makes an EdgePair: `analyze` of the
    # 2000-image triangle reads all 500 basis kinds, the pattern's periods,
    # dump and channels read every kind, and the SWF's wavelength check
    # passes one momentum and refuses another, all on the gluing tuples
    spec = tmp_path / "triangle_353_1000.json"
    spec.write_text('{"sides": [{"angle": "353/1000", "length": "1"}, '
                    '{"angle": "1/2"}, {"angle": "147/1000"}]}')

    def no_record(*_args, **_kwargs):
        raise AssertionError("an EdgePair was made")

    monkeypatch.setattr(EdgePair, "__init__", no_record)
    assert cli.run(["analyze", str(spec)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "g=250, images=2000, periods=500, DRPB=no (irrational relations)"
    assert (out.count(" simple-internal"), out.count(" structural")) == (498, 2)
    epp = build_epp(broken_parallelogram())
    assert all(p.kind in ("simple-internal", "structural") for p in epp.periods)
    assert "[None]" not in epp.dump() and find_pocs(epp)
    poly = square()
    epp = build_epp(poly)
    pres = enumerate_prescriptions(epp)[0]
    q = momentum_aperiodic(period_lattice(poly.frame, period_basis(epp)), 1, 1)
    assert len(compile_swf(epp, pres, q)) == 2
    with pytest.raises(UnquantizedMomentum, match="into the period"):
        compile_swf(epp, pres, complex(1.1, 0.3))
    assert "edges" not in epp.__dict__


@pytest.mark.parametrize("make", [square, broken_parallelogram, equilateral,
                                  lambda: _right_triangle(1, 38), right_triangle_rationalized])
def test_edge_views_give_what_the_bench_counters_read(make):
    # the record views built on request: one per gluing, and each boundary
    # pair's period the signed vector of its group of equal translations
    epp = build_epp(make())
    f = epp.polygon.frame
    vectors, members, number = epp._groups
    boundary = [cid for cid, (_a, _b, _s, t) in enumerate(epp.gluings) if t]
    assert len(epp.edges) == len(epp.gluings)
    assert len(epp.edge_pairs) == len(boundary) == sum(map(len, members))
    for e, cid in zip(epp.edge_pairs, boundary):
        assert (e.a, e.b, e.side, e.translation) == epp.gluings[cid]
        assert e.period.kind is None
        assert f.is_zero(e.period.vector - vectors[number[cid]], epp._scale)
    for v, group in zip(vectors, members):
        assert epp.edges[group[0]].period.vector == v


def test_periods_are_signed_when_read(monkeypatch):
    # the 2000-image triangle: unfolding signs none of its 999 boundary
    # translations, the basis signs its own 2g = 500 and groups no pair,
    # and the first kind read groups them all
    calls = []
    real = unfold._half_plane

    def counting(frame, v):
        calls.append(v)
        return real(frame, v)

    monkeypatch.setattr(unfold, "_half_plane", counting)
    epp = build_epp(right_triangle_rationalized())
    assert calls == [] and sum(1 for g in epp.gluings if g[3]) == 999
    basis = period_basis(epp)
    assert len(calls) == len(basis) == 500 and "_groups" not in epp.__dict__
    basis[0].kind
    assert "_groups" in epp.__dict__
    fresh = build_epp(right_triangle_rationalized())
    fresh.periods
    assert [(repr(p.vector), p.kind) for p in basis] == [
        (repr(p.vector), p.kind) for p in period_basis(fresh)
    ]


@settings(max_examples=200, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3, 5, 6, 10, 15]),
    terms=st.lists(st.tuples(st.integers(0, 59), st.fractions(-3, 3, max_denominator=5)),
                   min_size=1, max_size=6),
    part=st.sampled_from(["any", "real", "imaginary"]),
)
def test_exact_real_part_test_reads_numerators(n, terms, part):
    # conj(v) = -v against re(v) = 0, on field elements of Q(zeta_4N) and
    # their real and purely imaginary parts; the sign follows it
    frame = ExactFrame(n)
    v = sum((frame.unit(j) * c for j, c in terms), frame.zero())
    if part == "real":
        v = v + v.conjugate()
    elif part == "imaginary":
        v = v - v.conjugate()
    assert _re_is_zero(v) == v.real.is_zero()
    z = complex(v)
    re = 0.0 if v.real.is_zero() else z.real
    assert _half_plane(frame, v) == (v if re > 0 or (re == 0 and z.imag > 0) else -v)


@pytest.mark.parametrize("a, n", [(1, 38), (3, 44), (353, 1000)])
def test_float_and_exact_frames_unfold_alike(a, n, monkeypatch):
    # while both frames exist: the same orientation at each image, the same
    # face tree and interior gluings, translations within the float
    # tolerance, the same kind of every distinct period, and the same DRPB
    # verdict (the bases may differ: 31/100 orders two periods of equal
    # float length the other way)
    flt = _right_triangle(a, n)
    monkeypatch.setattr(exactgeom, "EXACT_DEGREE_LIMIT", 10**6)
    ext = _right_triangle(a, n)
    assert not flt.frame.exact and ext.frame.exact
    fe, ee = build_epp(flt), build_epp(ext)
    tol = 1e-9 * flt.perimeter_float()
    assert [i[:2] for i in fe.images] == [i[:2] for i in ee.images]
    assert all(abs(complex(i[2]) - complex(j[2])) <= tol for i, j in zip(fe.images, ee.images))
    assert fe.face_tree == ee.face_tree
    assert [(e.a, e.b, e.side, e.interior) for e in fe.edges] == [
        (e.a, e.b, e.side, e.interior) for e in ee.edges
    ]
    assert all(abs(complex(e.translation) - complex(d.translation)) <= tol
               for e, d in zip(fe.edges, ee.edges))
    assert [p.kind for p in fe.periods] == [p.kind for p in ee.periods]
    assert (period_lattice(flt.frame, period_basis(fe)).doubly_rational
            == period_lattice(ext.frame, period_basis(ee)).doubly_rational)


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
    face_tree = set(epp.face_tree[1:])
    ends = {}  # class id -> (tail, head) vertex class
    adj = defaultdict(list)
    for cid, e in enumerate(epp.edges):
        if cid in face_tree:
            continue
        tail, head = vclass[(e.a, e.side)], vclass[(e.a, (e.side + 1) % n)]
        if epp.images[e.a - 1][0]:
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


def test_pattern_records_compare_by_identity():
    poly = square()
    f = poly.frame
    v = f.unit(0)
    assert Period(v).kind is None and Period(v, kind="structural").kind == "structural"
    assert Period(v) != Period(v)
    pair = EdgePair(1, 2, side=0, translation=v, period=Period(v))
    assert pair == pair and pair != EdgePair(1, 2, 0, v, pair.period)
    assert not pair.interior and EdgePair(1, 2, 0, f.zero()).interior
    # the pattern's views make their records from the gluing tuples on first read
    image, gluings = _identity(f), [(1, 2, 0, -v), (1, 2, 1, f.zero())]
    epp = EPP(poly, [image], gluings, C=1)
    assert epp.edges is epp.edges and epp.edge_pairs == epp.edges[:1]
    made = epp.edges[0]
    assert (made.a, made.b, made.side, made.translation) == gluings[0]
    assert not made.interior and made.period.vector == v and epp.edges[1].interior
    assert made != EPP(poly, [image], gluings, C=1).edges[0] and epp.images[0] is image
    assert epp != EPP(poly, [image], gluings, 1)


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
    boundary = [cid for cid, (_a, _b, _s, t) in enumerate(epp.gluings) if t]
    assert len(calls) == len(periods) < len(boundary)
    for i, a in enumerate(periods):
        assert not any(f.is_zero(a.vector - b.vector, scale) for b in periods[:i])
    # every pair maps to the classified period of its group
    number = epp._groups[2]
    for cid in boundary:
        per = epp._period(number[cid])
        assert per in periods
        assert f.is_zero(_half_plane(f, epp.gluings[cid][3]) - per.vector, scale)
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
    # period_basis decides no channel; the basis periods match some of the
    # groups of equal boundary translations, and reading their kinds decides
    # exactly those groups' channels
    calls = _count_channel_tests(monkeypatch)
    epp = build_epp(broken_parallelogram())
    basis = period_basis(epp)
    assert calls == []
    kinds = [p.kind for p in basis]
    number = epp._groups[2]
    groups = {number[cid] for cid in _basis_cycles(epp) if number[cid] is not None}
    assert len(calls) == len(groups) and set(epp._kinds) == groups
    assert [p.kind for p in basis] == kinds and len(calls) == len(groups)
    # reading every kind afterwards decides the rest, each once
    periods = epp.periods
    assert 0 < len(groups) < len(periods) == len(calls)
    # and agrees with a pattern that decided every kind before its basis
    fresh = build_epp(broken_parallelogram())
    assert [p.kind for p in periods] == [p.kind for p in fresh.periods]
    assert [(repr(p.vector), p.kind) for p in basis] == [
        (repr(p.vector), p.kind) for p in period_basis(fresh)
    ]


@pytest.mark.parametrize("name", VERTEX_CASES)
def test_basis_kinds_read_late_equal_kinds_decided_first(name):
    # a basis period's kind, decided when it is read, is the one its group
    # gets when the pattern decides every kind before the basis is built
    lazy = [(repr(p.vector), p.kind) for p in period_basis(build_epp(VERTEX_CASES[name]()))]
    epp = build_epp(VERTEX_CASES[name]())
    epp.periods
    assert lazy == [(repr(p.vector), p.kind) for p in period_basis(epp)]


def test_find_pocs_unclassified_traces_each_period_once(monkeypatch):
    p = isosceles_pi5()
    expected = [(d, repr(per.vector)) for d, per in find_pocs(build_epp(p))]
    epp = build_epp(p)
    calls = _count_channel_tests(monkeypatch)
    got = [(d, repr(per.vector)) for d, per in find_pocs(epp)]
    assert got == expected
    assert len(calls) == len(epp.periods)


_DEVELOPED = weakref.WeakKeyDictionary()  # pattern -> its `_developed_sides`


def _developed_sides(epp):
    """Per image, each side's (start corner, side vector, length) as floats, in
    developed coordinates: the image's isometry applied to the polygon's float
    corners.  The reference marches below run in these; `unfold._march` runs
    in the polygon's own coordinates and never builds them."""
    if epp not in _DEVELOPED:
        units = [complex(epp.polygon.frame.unit(j)) for j in range(2 * epp.C)]
        verts = epp.polygon.vertices_float()
        table = []
        for reflecting, rotation, t in epp.images:
            w, t = units[rotation], complex(t)
            corners = [w * (z.conjugate() if reflecting else z) + t for z in verts]
            sides = [(c, corners[(i + 1) % len(corners)] - c) for i, c in enumerate(corners)]
            table.append([(a, d, abs(d)) for a, d in sides])
        _DEVELOPED[epp] = table
    return _DEVELOPED[epp]


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
        verts = [a for a, _d, _len in _developed_sides(epp)[face - 1]]
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
        nxt, t_cross = _crossing(epp, face, best_side)
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
            verts = [a for a, _d, _len in _developed_sides(epp)[face - 1]]
            a, b = verts[e.side], verts[(e.side + 1) % len(verts)]
            ccw = not epp.images[face - 1][0]
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

    def counting(epp, face, side, r, u, length, closing=False):
        starts.append(r == 0.0)
        return real(epp, face, side, r, u, length, closing)

    monkeypatch.setattr(unfold, "_march", counting)
    return starts


def _middle_march_closes(epp, vector) -> bool:
    """Does the sampled trace from the middle of some boundary side close?"""
    tgt = epp.polygon.frame.to_complex(vector)
    for e in epp.edge_pairs:
        for face in (e.a, e.b):
            verts = [a for a, _d, _len in _developed_sides(epp)[face - 1]]
            a, b = verts[e.side], verts[(e.side + 1) % len(verts)]
            inward = ((b - a).conjugate() * tgt).imag
            if epp.images[face - 1][0]:
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
    epp = EPP(p, [], [(1, 1, 0, v) for v in vectors], 1)
    signed = [_half_plane(f, v) for v in vectors]  # what the pattern groups
    scan: list[list[int]] = []
    for k, v in enumerate(signed):
        if not vectors[k]:
            continue  # a zero translation is an interior gluing
        g = next((g for g in scan if f.is_zero(v - signed[g[0]], scale)), None)
        if g is None:
            scan.append([k])
        else:
            g.append(k)
    assert epp._groups[1] == scan
    assert epp._groups[2] == [next((i for i, g in enumerate(scan) if k in g), None)
                              for k in range(len(vectors))]
    for (dx, dy, _u) in offsets:
        w = vectors[0] + complex(dx, dy) * r
        want = next((i for i, g in enumerate(scan) if f.is_zero(w - signed[g[0]], scale)), None)
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
        for t, (a, d, side_len) in enumerate(_developed_sides(epp)[face - 1]):
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
        face, t_cross = _crossing(epp, face, side)
        z = z + s_hit * u - complex(t_cross)
        length -= s_hit


MARCH_CASES = [name for name in VERTEX_CASES
               if name.endswith(".json") or name.startswith("triangle_")]


def _assert_same_march(epp, face, side, r, u, length):
    a, d, _len = _developed_sides(epp)[face - 1][side]
    want, want_end = _float_point_march(epp, face, a + d * r, u, length)
    got, end = unfold._march(epp, face, side, r, u, length)
    want = [c for c in want if _crossing(epp, *c[:2])[1]]
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
        for k, sides in enumerate(_developed_sides(epp), 1):
            reflecting = epp.images[k - 1][0]
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
    a, d, _len = _developed_sides(epp)[face - 1][side]
    with pytest.raises(RuntimeError, match="image 1883"):
        _float_point_march(epp, face, a + d * r, u, length)
    t0 = time.perf_counter()
    assert unfold._march(epp, face, side, r, u, length) == ([], 3995)
    assert time.perf_counter() - t0 < 0.5


def test_closing_march_ends_inside_its_start_image():
    # triangle 1/13000, 26,000 images: the longest basis period, |v| ~ 2,
    # from the middle of its own pair's side.  The orbit closes, back on its
    # start side after |v|, where r has drifted by ~1e-8 over 26,000
    # crossings; marched for |v| alone, the last step overshot the length by
    # more than the tolerance and the march stopped one side short
    epp = build_epp(_right_triangle(1, 13000))
    e = max((epp.edges[cid] for cid in _basis_cycles(epp)),
            key=lambda e: abs(complex(e.translation)))
    tgt = complex(e.period.vector)
    length = abs(tgt)
    u = tgt / length
    _a, d, side_len = _developed_sides(epp)[e.a - 1][e.side]
    cross = ((d / side_len).conjugate() * u).imag
    # into image a when it lies left of its side, or right when it is reflecting
    face = e.a if (cross > 0) != epp.images[e.a - 1][0] else e.b
    assert length > 1.99
    assert _closes(epp, face, e.side, 0.5, u, length, e.period.vector, defaultdict(list))


def test_thin_triangle_channel_passes_close_to_a_corner():
    # triangle 1/50000, 100,000 images: the test march that closes the
    # shortest period's channel crosses the unit leg pi^2/(2N^2) ~ 2.0e-9
    # from its corner, under 1e-9 of the perimeter; a corner test at that
    # tolerance stopped the march there and read the period structural
    basis = period_basis(build_epp(_right_triangle(1, 50000)))
    assert basis[0].kind == "simple-internal"


@pytest.mark.parametrize("name", VERTEX_CASES)
def test_channel_verdict_is_dihedral(name):
    # the pattern's linear parts are the dihedral group of order 2N, which
    # the rotation by 2*pi/N and the mirror in side 0 (the real axis)
    # generate: carrying a period by either carries its channels too, so
    # every simple period's verdict is shared by its dihedral orbit
    p = VERTEX_CASES[name]()
    f = p.frame
    epp = build_epp(p)
    for v in epp._groups[0]:
        assert channel_exists(epp, v) == channel_exists(epp, f.rotate(v, 2)) \
            == channel_exists(epp, v.conjugate())


def test_march_without_exit_gives_up(monkeypatch, capsys):
    # a march that cannot leave its image is a search that gave up, exit 5,
    # and must not read as "no channel"; here every side of the polygon, the
    # one side table of every image, lies on the line of side 0, which the
    # march stands on, so none lies ahead
    real = EPP._sides.func
    monkeypatch.setattr(EPP, "_sides", property(lambda epp: [real(epp)[0]] * epp.polygon.n))
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
    f, number = epp.polygon.frame, epp._groups[2]
    for cid, (_a, _b, _s, t) in enumerate(epp.gluings):
        if t:
            direct = channel_exists(epp, _half_plane(f, t))
            assert epp._period(number[cid]).kind == ("simple-internal" if direct else "structural")
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
