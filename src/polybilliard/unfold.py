"""Unfolding a rational polygon: image orbits, periods, genus, channels.

Reflecting a polygon in its own sides, and the copies in theirs, tiles a
branched periodic figure.  Because every angle is (p/q)*pi, the linear parts
of the unfolding isometries form the dihedral group of order 2C (C = lcm of
the q's), so a breadth-first unfolding that accepts one image per orientation
terminates with exactly 2C images — the elementary pattern.  Every further
reflection lands on an accepted image up to a pure translation; those
translations are the simple periods, and the pattern's edges glue in pairs.
The search is a walk over its own image list (`build_epp`): it mirrors
each image across its sides in order and adds an image only for a new
orientation.  Images and gluings are plain tuples (`EPP`), and every
reader of a gluing reads its tuple; a boundary pair's translation is
signed into a period (`_half_plane`) where a reader needs the sign.

Gluing the 2C images along their edge pairs produces a closed orientable
surface whose genus the angle data fixes (`genus`).  Its faces are the
images, its edges the edge classes and its vertices the classes of corners
that the gluings identify: the components of that corner relation, so they
are correct by construction.  The gluings that created the images are a
spanning tree of the faces, the face tree, which the unfolding records as
it goes (`EPP.face_tree`).  It and a spanning tree of the vertices over the
other edge classes leave exactly 2g edge classes over, whose crossing
cycles are a Z-basis of the surface's homology: the crossing cycles of the
classes off the face tree are related only by the vertex stars, and the
incidence matrix of vertices and classes is totally unimodular.
`period_basis` grows one union-find forest over the corners: the gluings'
corner joins make its trees the vertex classes, and Kruskal's rule then
joins those longest first on the same forest, so that the classes left
over are the shortest-first greedy basis.  It returns their translations.

Boundary pairs with equal signed translations share one simple period
(`EPP.periods`): the pattern groups them by gluing index, and each basis
cycle that is a boundary pair takes its own group's kind.  One index finds
a vector's group, for the grouping itself and for `channel_exists`: an
exact frame keys it by the normalized field element, a float frame by a
grid cell a little wider than the `is_zero` radius, and a lookup probes the
cells around the vector (`frame.index_key`, `frame.probe_keys`), so it
finds the group a scan of every group would.

The pattern decides, once per distinct period and only when a reader asks
for its kind, whether a channel of parallel periodic orbits runs along it
(`channel_exists`).  A straight orbit on the glued surface is a billiard
orbit inside the one polygon, and the images only record which copy it is
in (Katok & Zemlyakov 1975), so an orbit marches in the polygon's own
coordinates, over one table of its sides (`EPP._sides`, `_march`).  Its
state is an image, a side and a position on it; inside image k it runs
along the orbit's direction turned back by k's reflection and rotation,
made from k's own tuple at each crossing (`_heading`); the next image is
the other end of the gluing of the side it crosses (`EPP.slots`).  It
keeps only its boundary crossings.  `channel_exists` tests one orbit from
the middle of each boundary side, and only if none closes, cuts the sides
at the separatrices of that direction and tests one orbit per piece,
skipping the pieces an orbit already tested runs through; a test orbit
runs on past its length by half its first step, so that one that closes
ends inside its start image, not on its start side.
`period_basis` asks for no kind: a basis period asks for its group's kind
when its own is first read, as `analyze` and `unfold` do when they print
it.  `EPP.periods`, `EPP.dump` and `find_pocs` ask for every kind, and
`find_pocs` lists the periods that have a channel.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import defaultdict
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import eq

from .errors import ConvergenceFailure, NonIntegerGenus, RankMismatch, _refuse_past_memory
from .exactgeom import Polygon

__all__ = [
    "Period",
    "EdgePair",
    "EPP",
    "build_epp",
    "genus",
    "period_basis",
    "find_pocs",
    "channel_exists",
]

_TOL = 1e-9


def _re_is_zero(v) -> bool:
    """re(v) = 0 for a field element v: conj(v) = -v, numerator by numerator.

    Unlike `v.real.is_zero()` it builds no v.real (a combine and a normalize).
    """
    return v.conjugate() == -v


def _fmt_vec(f, v) -> str:
    z = complex(v)
    re, im = z.real, z.imag
    if f.exact:  # snap float dust off exactly-zero components
        if _re_is_zero(v):
            re = 0.0
        if v.imag.is_zero():
            im = 0.0
    return f"({re:.12g},{im:.12g})"


class Period:
    """A translation leaving the unfolded figure invariant.

    kind: "simple-internal" (a single edge-pair translation along which a
    channel of parallel periodic orbits runs), "structural" (single pair, no
    orbit of that holonomy closes: `channel_exists` is False), or None for
    the bare signed translation that a record view of a gluing carries; the
    pattern's classified periods are `EPP.periods`.

    A `period_basis` period decides its kind when it is first read, from
    its group's classified period (`EPP._period`), so a caller that reads
    only vectors decides no channel.  Until then it holds its pattern, and
    so does a lattice built on it.
    """

    __slots__ = ("vector", "_kind", "_resolve")

    def __init__(self, vector, kind: str | None = None):
        self.vector = vector
        self._kind = kind
        self._resolve = None  # a call returning the kind, dropped once made

    @property
    def kind(self) -> str | None:
        if self._resolve is not None:
            self._kind, self._resolve = self._resolve(), None
        return self._kind


class EdgePair:
    """Gluing of side `side` of image a to side `side` of image b, as a record.

    Crossing from a to b continues the trajectory in the copy of the pattern
    offset by +translation; `interior` gluings have translation zero.  A
    boundary pair's `period` is the one it is given, its translation with
    the canonical sign (`_half_plane`) and kind None; an interior gluing's
    is None.  The classified period it shares with every pair of an equal
    translation is in `EPP.periods`.  The pattern itself stores tuples;
    `EPP.edges` and `EPP.edge_pairs` build these records for library
    callers.
    """

    __slots__ = ("a", "b", "side", "translation", "interior", "period")

    def __init__(self, a: int, b: int, side: int, translation, period: Period | None = None):
        self.a = a
        self.b = b
        self.side = side
        self.translation = translation
        self.interior = period is None
        self.period = period


class EPP:
    """Elementary polygon pattern: 2C images plus the full edge gluing.

    `images` holds image k + 1 at k as a plain (reflecting, rotation,
    translation) tuple, its placement z -> unit(rotation) * (conj z if
    reflecting else z) + translation, rotation a direction index mod 2C.
    `gluings` holds the gluings in discovery order, interior and boundary
    mixed, as (a, b, side, translation) tuples: side `side` of image a is
    glued to side `side` of image b.  An interior gluing's translation is
    the frame's zero, so `not translation` tells it.  `_groups` groups the
    boundary gluings by index, and every reader in this package reads the
    tuples; `edges` and `edge_pairs` are record views of them, built on
    request for library callers.

    `face_tree` holds at k - 1 the index in `gluings` of the gluing that
    created image k from its parent, the gluing's a end (None for image 1):
    the spanning tree of the faces that `build_epp` grows.  The crossing
    cycle of every other gluing crosses it and returns through this tree;
    `period_basis` takes 2g of them and `swf.enumerate_prescriptions` reads
    the tree.  `slots` holds at (k - 1)*n + s the index in `gluings` of the
    gluing of side s of image k.
    """

    def __init__(
        self,
        polygon: Polygon,
        images: list[tuple],
        gluings: list[tuple],
        C: int,
        face_tree: list[int | None] | None = None,
    ):
        self.polygon = polygon
        self.images = images
        self.gluings = gluings
        self.C = C
        self.face_tree = face_tree
        # `frame.index_key` of a group's vector -> the indices of the groups
        # there, filled by `_groups`: an exact frame keys a vector by itself,
        # a float frame by its grid cell
        self._index: dict[object, list[int]] = {}
        # group index -> its classified period, for the groups asked for so far
        self._kinds: dict[int, Period] = {}

    @cached_property
    def edges(self) -> list[EdgePair]:
        """A view: an `EdgePair` per gluing, in the order of `gluings`, its period signed."""
        f = self.polygon.frame
        return [EdgePair(*g, Period(_half_plane(f, g[3])) if g[3] else None) for g in self.gluings]

    @cached_property
    def edge_pairs(self) -> list[EdgePair]:
        """A view: the boundary pairs of `edges`, those with a nonzero translation."""
        return [e for e in self.edges if not e.interior]

    @cached_property
    def periods(self) -> list[Period]:
        """Distinct simple periods in discovery order, each with its kind.

        Reading them decides every kind: one `channel_exists` call for each
        distinct period whose kind no reader has asked for yet (`_period`).
        """
        return [self._period(i) for i in range(len(self._groups[0]))]

    @cached_property
    def _groups(self) -> tuple[list, list[list[int]], list[int | None]]:
        """Boundary gluings grouped by equal signed translation, in discovery order.

        Each group's vector, each group's gluing indices, and per gluing its
        group number, None for an interior gluing.  A gluing joins the first
        group whose vector its signed translation (`_half_plane`) equals
        (`frame.is_zero` of the difference), found through `_index`, or
        starts a group with that vector, a simple period.
        """
        f, scale = self.polygon.frame, self._scale
        vectors, members, number = [], [], []
        for cid, (_a, _b, _s, t) in enumerate(self.gluings):
            if not t:
                number.append(None)
                continue
            v = _half_plane(f, t)
            i = self._group_of(v, vectors)
            if i is None:
                i = len(vectors)
                self._index.setdefault(f.index_key(v, scale), []).append(i)
                vectors.append(v)
                members.append([])
            members[i].append(cid)
            number.append(i)
        return vectors, members, number

    def _group_of(self, v, vectors: list | None = None) -> int | None:
        """Number of the first group whose vector equals v, or None.

        Only the groups at v's `frame.probe_keys` can pass `frame.is_zero`, so
        the lowest number that passes there is the first match of a scan over
        every group.
        """
        f, scale = self.polygon.frame, self._scale
        vectors = self._groups[0] if vectors is None else vectors
        found = None
        for key in f.probe_keys(v, scale):
            for i in self._index.get(key, ()):
                if found is not None and i >= found:
                    break
                if f.is_zero(v - vectors[i], scale):
                    found = i
                    break
        return found

    def _period(self, i: int) -> Period:
        """The classified period of group i, deciding its channel on first request."""
        p = self._kinds.get(i)
        if p is None:
            v = self._groups[0][i]
            p = Period(v, "simple-internal" if channel_exists(self, v) else "structural")
            self._kinds[i] = p
        return p

    @cached_property
    def slots(self) -> list[int | None]:
        """Slot (k - 1)*n + s, side s of image k -> index in `gluings` of its gluing."""
        n = self.polygon.n
        slots: list[int | None] = [None] * (n * len(self.images))
        for cid, (a, b, s, _t) in enumerate(self.gluings):
            slots[(a - 1) * n + s] = slots[(b - 1) * n + s] = cid
        return slots

    @cached_property
    def _scale(self) -> float:
        """The polygon's perimeter: the length scale of float tolerances."""
        return self.polygon.perimeter_float()

    @cached_property
    def _sides(self) -> list[tuple[complex, complex, float]]:
        """Each side of the polygon as (start corner, side vector, length), in floats.

        Every image is an isometry of the polygon, so this one table serves
        every image: a march runs in the polygon's own coordinates.
        """
        verts = self.polygon.vertices_float()
        sides = [(c, verts[(i + 1) % len(verts)] - c) for i, c in enumerate(verts)]
        return [(a, d, abs(d)) for a, d in sides]

    @cached_property
    def _units(self) -> list[complex]:
        """The float unit of each of the 2N rotations: a float frame's own
        table, which holds them already, or the exact units' floats."""
        f = self.polygon.frame
        if not f.exact:
            return f._units
        return [complex(f.unit(j)) for j in range(2 * f.N)]

    def dump(self) -> str:
        f = self.polygon.frame
        lines = [f"EPP C={self.C} images={len(self.images)} exact={f.exact}"]
        for k, (reflecting, rotation, t) in enumerate(self.images, 1):
            lines.append(
                f"image {k}: rot={rotation} refl={int(reflecting)} t={_fmt_vec(f, t)}"
                + (f" t_exact={t!r}" if f.exact else "")
            )
        for cid, (a, b, s, t) in enumerate(self.gluings):
            kind = self._period(self._groups[2][cid]).kind if t else "interior"
            lines.append(f"pair side {s}: {a} <-> {b} T={_fmt_vec(f, t)} [{kind}]")
        return "\n".join(lines)


def genus(polygon: Polygon) -> int:
    """Genus of the closed surface obtained by gluing the pattern's edge pairs.

    g = 1 + (N/2) * sum((p - 1)/q) over the angles p/q, N = `polygon.N`, the
    lcm of the q's, so that 2(g - 1) is the integer sum of (N/q)(p - 1).
    """
    n = polygon.N
    twice = sum(n // a.q * (a.p - 1) for a in polygon.angles)
    if twice % 2:
        raise NonIntegerGenus(f"genus formula gave {1 + Fraction(twice, 2)} for {polygon!r}")
    return 1 + twice // 2


def _half_plane(frame, v):
    """v or -v, whichever has re > 0 (tie: im > 0)."""
    z = complex(v)
    zero_re = _re_is_zero(v) if frame.exact else frame.is_zero(v.real, abs(z))
    re = 0.0 if zero_re else z.real
    if re > 0:
        return v
    if re < 0:
        return -v
    return v if z.imag > 0 else -v


def build_epp(polygon: Polygon) -> EPP:
    """Breadth-first unfolding accepting one image per orientation.

    The linear parts of unfolding isometries live in the dihedral group of
    order 2C, and two images are faithful copies of each other exactly when
    their orientations agree, so orientation-dedup yields the 2C-image
    elementary pattern deterministically.

    The search walks its own image list, each image's sides in order: a
    breadth-first queue of the slots (image, side) would pop them in that
    order.  Mirroring image k across its side s reflects it across the line
    of that side through its corner p0 = k(vertex s): the mirror image has
    the other reflecting flag, rotation r - rot for r twice the side's
    direction under k, and translation rot_r(conj T) + p0 - rot_r(conj p0),
    T and rot being k's: T mirrored in that line (`frame.mirror`).  An image is made only for a new orientation; a
    mirror image of one already found is a gluing to it, whose translation
    is the difference of the two.

    Each image is created by a gluing to an image before it; those gluings
    are the pattern's `face_tree`.  Every slot is glued once, to a slot of
    the other parity: mirroring across side s is an involution on
    orientations, so a slot and its partner are unglued together.  There
    are at most 4C orientations (reflecting flag, rotation mod 2C), so the
    search ends; that it ends with 2C images is the theorem checked below.

    The 2C images are refused before the walk starts when they outrun
    physical memory (OutOfRange) at what the walk stores per image: its
    tuple and translation, its n/2 gluing tuples and their translations,
    its face-tree entry and its slots in the walk's lists.

    Only unfolds: no channel is decided, no period signed and no record
    made here.  The pattern signs its boundary translations and groups
    them by gluing index into simple periods on first use (`EPP._groups`),
    and decides a period's kind when a reader asks for it (`EPP.periods`).
    """
    f = polygon.frame
    n, m = polygon.n, 2 * f.N
    scale = polygon.perimeter_float()
    rotate, mirror, is_zero, zero = f.rotate, f.mirror, f.is_zero, f.zero()
    size, slot = sys.getsizeof, sys.getsizeof([None]) - sys.getsizeof([])
    # per image: images, 2 by_orient, n glued, n/2 gluings and face_tree slots
    per_image = (size((False, 0, zero)) + size(zero) + size(n * m) + (4 + n) * slot
                 + n * (size((1, 1, 0, zero)) + size(zero) + slot) // 2)
    _refuse_past_memory(m, per_image, f"the {m} images of the unfolding are more")
    # per reflecting flag, (side s, twice its direction signed, its start corner)
    sides = list(enumerate(zip(polygon.dirs, polygon.verts)))
    walks = ([(s, 2 * j, v) for s, (j, v) in sides], [(s, -2 * j, v.conjugate()) for s, (j, v) in sides])
    images = [(False, 0, zero)]  # (reflecting, rotation, translation)
    by_orient: list[int | None] = [None] * (2 * m)  # reflecting * m + rotation -> index in images
    by_orient[0] = 0
    unglued = [False] * n
    glued = unglued[:]  # slot k*n + s: side s of images[k]
    gluings: list[tuple] = []  # (a, b, side, translation)
    face_tree: list[int | None] = [None]  # image k + 1 -> index in gluings of its creating gluing
    for k, (flip, rot, t0) in enumerate(images):  # the list grows as the walk finds images
        a, rot2, t0c, base, other_flag = k + 1, 2 * rot, t0.conjugate(), k * n, 0 if flip else m
        for s, dj, corner in walks[flip]:
            if glued[base + s]:
                continue
            r = (rot2 + dj) % m
            p0 = rotate(corner, rot) + t0
            t = mirror(t0c, p0, r)
            orient = other_flag + (r - rot) % m
            other = by_orient[orient]
            if other is None:
                other = by_orient[orient] = len(images)
                images.append((not flip, orient - other_flag, t))
                face_tree.append(len(gluings))
                gluings.append((a, other + 1, s, zero))
                glued += unglued
            else:
                t = t - images[other][2]
                gluings.append((a, other + 1, s, zero if is_zero(t, scale) else t))
            glued[base + s] = glued[other * n + s] = True
    if len(images) != 2 * f.N:
        raise RuntimeError(
            f"unfolding closed with {len(images)} images, expected {2 * f.N}"
        )
    return EPP(polygon, images, gluings, f.N, face_tree)


# ---------------------------------------------------------------------------
# Homology of the glued surface
# ---------------------------------------------------------------------------


def _find(root: list[int], v: int) -> int:
    """Root of v in the union-find forest `root`, halving the path on the way."""
    while root[v] != v:
        root[v] = v = root[root[v]]
    return v


def _basis_cycles(epp: EPP) -> list[int]:
    """Indices in `gluings` of the 2g classes whose crossing cycles `period_basis` takes.

    One union-find forest over the corners, corner (k, i) at (k - 1)*n + i.
    It first joins the corners each gluing identifies, corner s of its two
    images and corner s+1, so its trees are the vertex classes, the
    components of that relation, correct by construction, and V is the
    number of roots.  Then Kruskal's rule runs on the same forest: it sorts
    the classes off the face tree shortest first, walks them in reverse and
    joins the vertex classes at the two ends of each.  The classes that join
    nothing are the complement of a spanning tree, returned shortest first.
    Raises RankMismatch when the Euler characteristic is not 2 - 2g, or when
    other than 2g classes are left: the global guard on the gluings.
    """
    n = epp.polygon.n
    g = genus(epp.polygon)
    gluings, face_tree = epp.gluings, epp.face_tree
    root = list(range(n * len(epp.images)))
    for a, b, s, _t in gluings:
        a, b, t = (a - 1) * n, (b - 1) * n, (s + 1) % n
        root[_find(root, a + s)] = _find(root, b + s)
        root[_find(root, a + t)] = _find(root, b + t)
    nverts = sum(map(eq, root, range(len(root))))
    chi = nverts - len(gluings) + len(epp.images)
    if chi != 2 - 2 * g:
        raise RankMismatch(f"Euler characteristic {chi} != {2 - 2 * g}")

    def key(cid: int) -> tuple:  # boundary pairs by length, then interior gluings
        t = gluings[cid][3]
        return (0, round(abs(complex(t)), 12), cid) if t else (1, 0.0, cid)

    candidates = sorted((cid for cid, g in enumerate(gluings) if face_tree[g[1] - 1] != cid), key=key)
    cycles = []
    for cid in reversed(candidates):
        a, _b, s, _t = gluings[cid]
        tail = _find(root, (a - 1) * n + s)
        head = _find(root, (a - 1) * n + (s + 1) % n)
        if tail == head:
            cycles.append(cid)
        else:
            root[tail] = head
    if len(cycles) != 2 * g:
        raise RankMismatch(f"found {len(cycles)} independent cycles, genus demands {2 * g}")
    return cycles[::-1]


def period_basis(epp: EPP) -> list[Period]:
    """2g periods of the unfolded figure whose cycles are a Z-basis of the homology.

    Cycles on the glued surface come from a tree and a co-tree (Eppstein
    2003).  The face tree (`EPP.face_tree`) is the tree of the gluings that
    created the images.  The crossing cycle of an edge class off it crosses
    the class and returns through the tree.  These cycles span the homology,
    and the only relations among them are the vertex stars.  Each edge class
    is also a segment between two glued vertices, so in coordinates over the
    classes off the face tree the relations are the rows of the incidence
    matrix of the graph that those classes make on the vertex classes.  A
    set of crossing cycles is thus independent exactly when the other
    classes still connect every vertex class: the independent sets are those
    of the dual of the graph's cycle matroid, and the bases are the
    complements of spanning trees.  An incidence matrix is totally
    unimodular, so each such complement is a Z-basis of the homology, not
    only a Q-basis.

    The cycles are chosen shortest first (Erickson & Whittlesey 2005):
    boundary pairs by the length of their translation, then interior
    gluings.  Greedy in a matroid's dual is the complement of greedy in
    reverse order in the matroid itself, so the choice is the complement of
    the spanning tree Kruskal's rule builds longest first (`_basis_cycles`).

    Each period is its cycle's translation, and each cycle is a gluing.  A
    boundary pair's cycle takes the kind of the pair's own group of equal
    translations, the simple period it shares.  No channel is decided here:
    a period decides its group's kind when its `kind` is first read
    (`Period`), so the lattice, `quantize`, `swf` and `verify`, which read
    only vectors, decide none.  A cycle of an interior gluing, zero
    translation, is replaced by its sum with the first boundary pair's
    cycle, which keeps the cycles a Z-basis and has that pair's translation
    and kind.  The periods are sorted by length, then angle.

    Note the returned *vectors* need not be integer-independent in the plane:
    whenever period ratios are rational the plane vectors satisfy integer
    relations, and the independence statement lives on the surface cycles.
    """
    f = epp.polygon.frame
    cycles = _basis_cycles(epp)
    first = next((cid for cid in cycles if epp.gluings[cid][3]), None)
    if first is None:
        raise RankMismatch("all basis periods have zero translation")
    periods = []
    for cid in cycles:
        if not epp.gluings[cid][3]:
            cid = first
        # a holonomy is a sum from zero, which also turns a float -0.0 into 0.0
        v = _half_plane(f, f.zero() + epp.gluings[cid][3])
        z = complex(v)
        p = Period(v)
        p._resolve = lambda cid=cid: epp._period(epp._groups[2][cid]).kind
        periods.append((round(abs(z), 12), math.atan2(z.imag, z.real), p))
    periods.sort(key=lambda t: (t[0], t[1]))
    return [p for _n, _a, p in periods]


# ---------------------------------------------------------------------------
# Periodic-orbit channels
# ---------------------------------------------------------------------------


def _heading(epp: EPP, k: int, u: complex) -> complex:
    """Direction u inside the polygon, seen in image k.

    Image k places the polygon by z -> w * z, or w * conj(z) when it
    reflects, w the float unit of its rotation (`EPP._units`), so u runs
    along conj(w) * u inside it, or w * conj(u).
    """
    reflecting, rotation, _t = epp.images[k - 1]
    w = epp._units[rotation]
    return w * u.conjugate() if reflecting else w.conjugate() * u


def _march(epp: EPP, face: int, side: int, r: float, u: complex, length: float,
           closing: bool = False):
    """March a straight line of `length`, direction u, from side `side` of image `face`.

    The march runs in the polygon's own coordinates (`EPP._sides`): the
    state is (image, side, r), r the position along the side from its start
    corner, the same in both images the side glues, and the image only says
    which way u runs inside the polygon (`_heading`).  That direction is
    made afresh from each image's own tuple, not carried across crossings
    as a product of reflections, whose roundoff would grow along a long
    march.  The exit is the nearest side ahead but the one the march stands
    on (at a corner, r = 0, and the one ending there).  Returns the boundary
    crossings, as (image left, side, r), and the end image, or None at a
    corner.  An image with no exit raises ConvergenceFailure.

    `closing` marches on by half the first step: an orbit that closes after
    `length` is then back on its start side, and it ends half a step inside
    its start image instead of on that side, where the end test would be a
    tie that the drift of r decides.

    A hit within float resolution of a corner, 1e-12 of the length scale,
    runs into it; the end test keeps `_TOL`.  On a thin triangle 1/N the test
    march that closes the shortest period's channel crosses the unit leg
    pi^2/(2N^2) from its corner, under `_TOL` of the perimeter from
    N ~ 49,700 on: a corner test at `_TOL` stopped it there, and the channel
    got "no".
    """
    scale = max(1.0, epp._scale)
    tol, corner = _TOL * scale, 1e-12 * scale
    uc = u.conjugate()
    sides, units, images, n = epp._sides, epp._units, epp.images, epp.polygon.n
    gluings, slots = epp.gluings, epp.slots
    crossings = []
    while True:
        # u inside the polygon, `_heading` inline: a call per crossing costs a tenth of the march
        reflecting, rotation, _t = images[face - 1]
        v = units[rotation] * uc if reflecting else units[rotation].conjugate() * u
        vc = v.conjugate()
        a, d, _len = sides[side]
        z = a + d * r
        behind = (side, (side - 1) % n) if r == 0.0 else (side,)
        best = None
        for t, (a, d, side_len) in enumerate(sides):
            denom = (vc * d).imag
            if t in behind or abs(denom) < 1e-13:
                continue
            wc = (a - z).conjugate()
            s_hit = (wc * d).imag / denom
            r_hit = (wc * v).imag / denom
            if s_hit > 0 and -_TOL <= r_hit <= 1 + _TOL and (best is None or s_hit < best[0]):
                best = (s_hit, t, r_hit, side_len)
        if best is None:
            raise ConvergenceFailure(f"channel march finds no exit from image {face}, side {side}")
        s_hit, side, r, side_len = best
        if closing:
            length += s_hit / 2
            closing = False
        if length < s_hit - tol:
            return crossings, face
        if min(r, 1 - r) * side_len < corner:
            return crossings, None
        ga, gb, _s, t_cross = gluings[slots[(face - 1) * n + side]]
        if t_cross:
            crossings.append((face, side, r))
        face = gb if face == ga else ga
        length -= s_hit


def _closes(epp: EPP, face: int, side: int, r: float, u: complex, length: float, vector, missed):
    """March the orbit of `vector` from position r along side `side` of image `face`.

    The march runs `length` plus half its first step (`_march`'s
    `closing`), so a closing orbit ends inside `face`.  True when it
    closes: it ends in `face` and its boundary crossings sum exactly to
    `vector`.  False when it ends in an image without closing; its start
    and boundary crossings then go into `missed`, as gluing index ->
    positions.  None when it runs into a corner.
    """
    crossings, end = _march(epp, face, side, r, u, length, closing=True)
    if end is None:
        return None
    f, n, slots = epp.polygon.frame, epp.polygon.n, epp.slots
    if end == face:
        offset = f.zero()
        for fc, s, _r in crossings:  # crossing from the b end goes back by the translation
            a, _b, _s, t = epp.gluings[slots[(fc - 1) * n + s]]
            offset = offset + t if fc == a else offset - t
        if f.is_zero(offset - vector, epp._scale):
            return True
    missed[slots[(face - 1) * n + side]].append(r)
    for fc, s, rc in crossings:
        missed[slots[(fc - 1) * n + s]].append(rc)
    return False


def channel_exists(epp: EPP, vector) -> bool:
    """Does some straight orbit close up under translation by `vector`?

    Such an orbit, of direction u and length |vector|, crosses a boundary
    side.  Every test runs in the polygon's own coordinates, where the
    polygon lies left of each of its sides and u runs inside image k along
    `_heading`.  Test first: march one orbit from the middle of each
    boundary side not parallel to u, in the image u enters (image a of the
    pair when u, seen in a, points to the side's left, else image b, which
    mirrors a across that side up to a translation), for |vector| plus half
    its first step, so that it ends inside its start image if it closes
    (`_closes`); any orbit that closes proves the channel.  The period's own pairs, the group of
    boundary pairs whose translation is +-vector (`EPP._group_of`), go
    first, then the rest in discovery order: on a long period an orbit from
    one of its own pairs usually closes at once.  The order cannot change
    the verdict, since a yes needs any one closing march and a no tests
    every piece.  Only when none closes, cut: from every corner sector that
    -u enters, march a separatrix backward for |vector| (2g-2+V of them at
    most, V the number of vertex classes) and cut the boundary sides it
    crosses.  The sector at corner i of image k turns counterclockwise from
    side i by the corner's angle, and -u enters it when -u seen in k does.
    Between two cuts every orbit runs into no corner and follows the same
    path, so all of them close or none does.  Then test one orbit from the
    middle of each piece.  A march is an (image, side, r) state (`_march`),
    r = 0 for a separatrix, and keeps its boundary crossings only: only
    those are cut.

    One "no" per orbit: a march that neither closes nor runs into a corner
    records where it started and every boundary side it crossed.  If some
    point of its orbit closed, the orbit would be periodic and that march
    would have closed too, so a piece that strictly holds a recorded
    position, by more than `_TOL`, is a "no" without a march of its own.  A
    march that ran into a corner records nothing: it lies on a separatrix.
    """
    tgt = complex(vector)
    length = abs(tgt)
    u = tgt / length
    angles, n, slots = epp.polygon.angles, epp.polygon.n, epp.slots

    _vectors, members, number = epp._groups
    group = epp._group_of(_half_plane(epp.polygon.frame, vector))
    own = [] if group is None else members[group]
    missed = defaultdict(list)  # gluing index -> positions a march that did not close crossed
    sides = []  # (gluing index, side, image u enters)
    for cid in chain(own, (cid for cid, i in enumerate(number) if i is not None and i != group)):
        a, b, side, _t = epp.gluings[cid]
        _a, d, side_len = epp._sides[side]
        cross = ((d / side_len).conjugate() * _heading(epp, a, u)).imag
        if abs(cross) <= _TOL:
            continue  # parallel to the orbits: none crosses it
        face = a if cross > 0 else b  # the polygon lies left of its sides
        if _closes(epp, face, side, 0.5, u, length, vector, missed):
            return True
        sides.append((cid, side, face))
    cuts = defaultdict(list)  # gluing index -> positions of its cuts
    for k in range(1, len(epp.images) + 1):
        v = _heading(epp, k, -u)
        for i, (_a, d, _len) in enumerate(epp._sides):
            # the sector at corner i, the start of side i, turns counterclockwise from side i
            if _TOL < cmath.phase(v / d) % (2 * math.pi) < angles[i - 1].radians() - _TOL:
                for face, side, r in _march(epp, k, i, 0.0, -u, length)[0]:
                    cuts[slots[(face - 1) * n + side]].append(r)
    for cid, side, face in sides:
        rs = sorted([0.0, 1.0, *cuts[cid]])
        for r0, r1 in zip(rs, rs[1:]):
            if any(r0 + _TOL < r < r1 - _TOL for r in missed[cid]):
                continue
            if _closes(epp, face, side, (r0 + r1) / 2, u, length, vector, missed):
                return True
    return False


def find_pocs(epp: EPP):
    """Simple periods admitting a periodic-orbit channel, with their directions.

    Returns (direction, Period) pairs, direction in [0, pi): the distinct
    periods of `epp.periods` whose kind is "simple-internal", ordered by
    length.  It reads every kind.  The kinds are the pattern's own: each
    distinct period's channel is decided by `channel_exists` at most once
    per pattern, whichever of `find_pocs`, a basis period's `kind` and
    `EPP.dump` asks for it first.
    """
    entries = []
    for p in sorted(epp.periods, key=lambda p: round(abs(complex(p.vector)), 12)):
        if p.kind == "simple-internal":
            z = complex(p.vector)
            entries.append((math.atan2(z.imag, z.real) % math.pi, p))
    return entries
