"""Unfolding a rational polygon: image orbits, periods, genus, channels.

Reflecting a polygon in its own sides, and the copies in theirs, tiles a
branched periodic figure.  Because every angle is (p/q)*pi, the linear parts
of the unfolding isometries form the dihedral group of order 2C (C = lcm of
the q's), so a breadth-first unfolding that accepts one image per orientation
terminates with exactly 2C images — the elementary pattern.  Every further
reflection lands on an accepted image up to a pure translation; those
translations are the simple periods, and the pattern's edges glue in pairs.

Gluing the 2C images along their edge pairs produces a closed orientable
surface whose genus the angle data fixes (`genus`).  Its faces are the
images, its edges the edge classes and its vertices the classes of corners
that the gluings identify: the components of that corner relation, which
union-find collects, so they are correct by construction.  The gluings that
created the images are a spanning tree of the faces, the face tree, which
the unfolding records as it goes (`EPP.face_tree`).  It and a spanning tree
of the vertices over the other edge classes leave exactly 2g edge classes
over, whose crossing cycles are a Z-basis of the surface's homology: the
crossing cycles of the classes off the face tree are related only by the
vertex stars, and the incidence matrix of vertices and classes is totally
unimodular.
`period_basis` takes the vertex tree that Kruskal's rule builds longest
first, so that the classes left over are the shortest-first greedy basis,
and returns their translations.

Boundary pairs with equal translations share one simple period
(`EPP.periods`).  One index finds a vector's group, for the grouping itself,
for `period_basis` and for `channel_exists`: an exact frame keys it by the
normalized field element, a float frame by a grid cell a little wider than
the `is_zero` radius, and a lookup probes the cells around the vector
(`frame.index_key`, `frame.probe_keys`), so it finds the group a scan of
every group would.  The pattern decides, once per distinct period and only
when a reader asks for its kind, whether a channel of parallel periodic
orbits runs along it (`channel_exists`: test one orbit from the middle of
each boundary side, and only if none closes, cut the sides at the
separatrices of that direction and test one orbit per piece, skipping the
pieces an orbit already tested runs through; an orbit's state is an image,
a side and a position on it, and it keeps only its boundary crossings).
`period_basis` asks for the kinds of the simple periods its basis vectors
equal; `EPP.periods`, `EPP.dump` and `find_pocs` ask for every kind, and
`find_pocs` lists the periods that have a channel.
"""

from __future__ import annotations

import cmath
import math
from collections import defaultdict, deque
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm

from .errors import ConvergenceFailure, NonIntegerGenus, OrbitExplosion, RankMismatch
from .exactgeom import Polygon

__all__ = [
    "Isometry",
    "PolygonImage",
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


def _fmt_vec(f, v) -> str:
    z = complex(v)
    re, im = z.real, z.imag
    if f.exact:  # snap float dust off exactly-zero components
        if v.real.is_zero():
            re = 0.0
        if v.imag.is_zero():
            im = 0.0
    return f"({re:.12g},{im:.12g})"


class Isometry:
    """Planar isometry z -> unit(rotation) * (conj z if reflecting else z) + translation.

    `rotation` is a direction index mod 2N: the linear part rotates by
    rotation*pi/N (after the optional conjugation).
    Isometries are equal and hashed by value.
    """

    __slots__ = ("reflecting", "rotation", "translation")

    def __init__(self, reflecting: bool, rotation: int, translation):
        self.reflecting = reflecting
        self.rotation = rotation
        self.translation = translation  # frame vector

    def _key(self) -> tuple:
        return (self.reflecting, self.rotation, self.translation)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"Isometry(reflecting={self.reflecting}, rotation={self.rotation}, "
            f"translation={self.translation!r})"
        )

    @classmethod
    def identity(cls, frame) -> "Isometry":
        return cls(False, 0, frame.zero())

    def apply(self, frame, z):
        w = z.conjugate() if self.reflecting else z
        return frame.rotate(w, self.rotation) + self.translation

    def transport(self, j: int, frame) -> int:
        """Direction index of the image of a vector with direction index j."""
        if self.reflecting:
            return (self.rotation - j) % (2 * frame.N)
        return (self.rotation + j) % (2 * frame.N)


class PolygonImage:
    """One copy of the polygon in the unfolding; index is 1-based."""

    __slots__ = ("index", "iso", "polygon")

    def __init__(self, index: int, iso: Isometry, polygon: Polygon):
        self.index = index
        self.iso = iso
        self.polygon = polygon

    @property
    def parity(self) -> int:
        """0 for even (orientation-preserving), 1 for odd; equals the reflecting flag."""
        return 1 if self.iso.reflecting else 0


class Period:
    """A translation leaving the unfolded figure invariant.

    kind: "simple-internal" (a single edge-pair translation along which a
    channel of parallel periodic orbits runs), "structural" (single pair, no
    orbit of that holonomy closes: `channel_exists` is False), "compound"
    (integer chain of pair translations), or None for the bare translation
    an `EdgePair` carries; the pattern's classified periods are `EPP.periods`.
    """

    __slots__ = ("vector", "kind")

    def __init__(self, vector, kind: str | None = None):
        self.vector = vector
        self.kind = kind


class EdgePair:
    """Gluing of side `side` of image a to side `side` of image b.

    Crossing from a to b continues the trajectory in the copy of the pattern
    offset by +translation; interior gluings have translation zero.  A
    boundary pair's `period` is its translation with the canonical sign
    (`_half_plane`) and kind None; the classified period it shares with every
    pair of an equal translation is in `EPP.periods`.
    """

    __slots__ = ("a", "b", "side", "translation", "period")

    def __init__(self, a: int, b: int, side: int, translation, period: Period | None):
        self.a = a
        self.b = b
        self.side = side
        self.translation = translation
        self.period = period


class EPP:
    """Elementary polygon pattern: 2C images plus the full edge gluing.

    `face_tree` maps each image to (parent image, index in `edges` of the
    gluing that created it), image 1 to None: the spanning tree of the faces
    that `build_epp` grows.  The crossing cycle of every other gluing
    crosses it and returns through this tree; `period_basis` takes 2g of
    them, the complement of a spanning tree of the vertex classes, and
    `swf.enumerate_prescriptions` reads off the tree which sides each
    image's path from image 1 crosses.
    """

    def __init__(
        self,
        polygon: Polygon,
        images: list[PolygonImage],
        edges: list[EdgePair],  # discovery order, interior and boundary mixed
        C: int,
        face_tree: dict[int, tuple[int, int] | None] | None = None,
    ):
        self.polygon = polygon
        self.images = images
        self.edges = edges
        self.C = C
        self.face_tree = face_tree

    def image(self, k: int) -> PolygonImage:
        return self.images[k - 1]

    @cached_property
    def edge_pairs(self) -> list[EdgePair]:
        """Boundary pairs: the gluings with a nonzero translation, in discovery order."""
        return [e for e in self.edges if e.period is not None]

    @cached_property
    def periods(self) -> list[Period]:
        """Distinct simple periods in discovery order, each with its kind.

        Reading them decides every kind: one `channel_exists` call for each
        distinct period whose kind no reader has asked for yet (`_period`).
        """
        return [self._period(i) for i in range(len(self._groups))]

    @cached_property
    def _period_of(self) -> dict[EdgePair, Period]:
        """Boundary pair -> the classified period of its group of equal translations."""
        return {e: self._period(i) for i, group in enumerate(self._groups) for e in group}

    @cached_property
    def _groups(self) -> list[list[EdgePair]]:
        """Boundary pairs grouped by equal half-plane translation, in discovery order.

        The first pair of a group represents it: its vector is the group's
        simple period.  A pair joins the first group whose vector its own
        equals (`frame.is_zero` of the difference), found through `_index`.
        """
        f, scale = self.polygon.frame, self._scale
        groups: list[list[EdgePair]] = []
        for e in self.edge_pairs:
            v = e.period.vector
            i = self._group_of(v, groups)
            if i is None:
                self._index.setdefault(f.index_key(v, scale), []).append(len(groups))
                groups.append([e])
            else:
                groups[i].append(e)
        return groups

    @cached_property
    def _index(self) -> dict[object, list[int]]:
        """`frame.index_key` of a group's vector -> the indices of the groups there.

        `_groups` fills it.  An exact frame keys a vector by itself, a float
        frame by its grid cell.
        """
        return {}

    def _group_of(self, v, groups: list[list[EdgePair]] | None = None) -> int | None:
        """Index of the first group whose vector equals v, or None.

        Only the groups at v's `frame.probe_keys` can pass `frame.is_zero`, so
        the lowest index that passes there is the first match of a scan over
        every group.
        """
        f, scale = self.polygon.frame, self._scale
        groups = self._groups if groups is None else groups
        found = None
        for key in f.probe_keys(v, scale):
            for i in self._index.get(key, ()):
                if found is not None and i >= found:
                    break
                if f.is_zero(v - groups[i][0].period.vector, scale):
                    found = i
                    break
        return found

    @cached_property
    def _kinds(self) -> dict[int, Period]:
        """Group index -> its classified period, for the groups asked for so far."""
        return {}

    def _period(self, i: int) -> Period:
        """The classified period of group i, deciding its channel on first request."""
        p = self._kinds.get(i)
        if p is None:
            v = self._groups[i][0].period.vector
            p = Period(v, "simple-internal" if channel_exists(self, v) else "structural")
            self._kinds[i] = p
        return p

    @cached_property
    def gluing(self) -> dict:
        """(image, side) -> (neighbor image, crossing translation)."""
        table = {}
        for e in self.edges:
            table[(e.a, e.side)] = (e.b, e.translation)
            table[(e.b, e.side)] = (e.a, -e.translation)
        return table

    @cached_property
    def _scale(self) -> float:
        """The polygon's perimeter: the length scale of float tolerances."""
        return self.polygon.perimeter_float()

    @cached_property
    def _sides_float(self) -> list[list[tuple[complex, complex, float]]]:
        """Per image, each side's (start corner, side vector, length) as floats.

        The corners are the image's isometry applied in floats to the
        polygon's float corners.
        """
        f = self.polygon.frame
        units = [complex(f.unit(j)) for j in range(2 * f.N)]
        verts = self.polygon.vertices_float()
        mirrored = [z.conjugate() for z in verts]
        out = []
        for img in self.images:
            w, t = units[img.iso.rotation], complex(img.iso.translation)
            corners = [w * z + t for z in (mirrored if img.iso.reflecting else verts)]
            sides = [(c, corners[(i + 1) % len(corners)] - c) for i, c in enumerate(corners)]
            out.append([(a, d, abs(d)) for a, d in sides])
        return out

    def dump(self) -> str:
        f = self.polygon.frame
        lines = [f"EPP C={self.C} images={len(self.images)} exact={f.exact}"]
        for img in self.images:
            lines.append(
                f"image {img.index}: rot={img.iso.rotation} refl={img.parity} "
                f"t={_fmt_vec(f, img.iso.translation)}"
                + (f" t_exact={img.iso.translation!r}" if f.exact else "")
            )
        for e in self.edges:
            kind = self._period_of[e].kind if e.period is not None else "interior"
            lines.append(
                f"pair side {e.side}: {e.a} <-> {e.b} "
                f"T={_fmt_vec(f, e.translation)} [{kind}]"
            )
        return "\n".join(lines)


def _mirror(iso: Isometry, polygon: Polygon, s: int) -> Isometry:
    """The isometry of the mirror copy, across its side s, of the image placed by iso.

    That is the reflection across the line of the image's side s, through
    its corner p0 = iso(vertex s), composed after iso.
    """
    f = polygon.frame
    r = 2 * iso.transport(polygon.dirs[s], f) % (2 * f.N)
    p0 = iso.apply(f, polygon.verts[s])
    t = f.rotate(iso.translation.conjugate(), r) + (p0 - f.rotate(p0.conjugate(), r))
    return Isometry(not iso.reflecting, (r - iso.rotation) % (2 * f.N), t)


def genus(polygon: Polygon) -> int:
    """Genus of the closed surface obtained by gluing the pattern's edge pairs."""
    c = lcm(*(a.q for a in polygon.angles))
    g = 1 + Fraction(c, 2) * sum(Fraction(a.p - 1, a.q) for a in polygon.angles)
    if g.denominator != 1:
        raise NonIntegerGenus(f"genus formula gave {g} for {polygon!r}")
    return int(g)


def _half_plane(frame, v):
    """v or -v, whichever has re > 0 (tie: im > 0)."""
    z = complex(v)
    re = 0.0 if frame.is_zero(v.real, abs(z)) else z.real
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

    Each image is created by a gluing to an image before it; those gluings
    are the pattern's `face_tree`.

    Only unfolds: no channel is decided here.  The pattern groups its
    boundary pairs into simple periods on first use, and decides a period's
    kind when a reader asks for it (`EPP.periods`).
    """
    f = polygon.frame
    n = polygon.n
    cap = 16 * f.N
    scale = polygon.perimeter_float()
    images = [PolygonImage(1, Isometry.identity(f), polygon)]
    by_orient: dict[tuple[bool, int], int] = {(False, 0): 0}  # -> index in images
    glued = [False] * n  # slot k*n + s: side s of images[k]
    edges: list[EdgePair] = []
    face_tree: dict[int, tuple[int, int] | None] = {1: None}  # image -> its creating gluing
    queue = deque(range(n))  # slots
    while queue:
        slot = queue.popleft()
        if glued[slot]:
            continue
        k, s = divmod(slot, n)
        cand = _mirror(images[k].iso, polygon, s)
        other = by_orient.get((cand.reflecting, cand.rotation))
        if other is None:
            if len(images) >= cap:
                raise OrbitExplosion(
                    f"more than {cap} images; the orientation dedup must be broken"
                )
            other = len(images)
            images.append(PolygonImage(other + 1, cand, polygon))
            by_orient[(cand.reflecting, cand.rotation)] = other
            face_tree[other + 1] = (k + 1, len(edges))
            edges.append(EdgePair(k + 1, other + 1, s, f.zero(), None))
            glued += [False] * n
            queue.extend(range(other * n, other * n + n))
        else:
            if glued[other * n + s]:
                raise RuntimeError("edge pairing inconsistency: slot glued twice")
            t = cand.translation - images[other].iso.translation
            if f.is_zero(t, scale):
                edges.append(EdgePair(k + 1, other + 1, s, f.zero(), None))
            else:
                edges.append(EdgePair(k + 1, other + 1, s, t, Period(_half_plane(f, t), None)))
        glued[slot] = glued[other * n + s] = True
    if len(images) != 2 * f.N:
        raise RuntimeError(
            f"unfolding closed with {len(images)} images, expected {2 * f.N}"
        )
    if len(edges) != n * f.N or not all(glued):
        raise RuntimeError("edge pairing incomplete after BFS closure")
    return EPP(polygon, images, edges, f.N, face_tree)


# ---------------------------------------------------------------------------
# Homology of the glued surface
# ---------------------------------------------------------------------------


def _find(root: list[int], v: int) -> int:
    """Root of v in the union-find forest `root`, halving the path on the way."""
    while root[v] != v:
        root[v] = v = root[root[v]]
    return v


def _vertex_classes(epp: EPP) -> dict[tuple[int, int], int]:
    """(image, vertex) -> id of the glued vertex of the surface at that corner.

    The vertices are the components of the relation the gluings put on the
    corners, so union-find over the corners is correct by construction: a
    gluing of side s joins corner s of its two images, and corner s+1.  The
    ids number the classes by their first corner, image by image.
    """
    n = epp.polygon.n
    root = list(range(n * len(epp.images)))  # corner (k, i) at (k - 1) * n + i
    for e in epp.edges:
        for i in (e.side, (e.side + 1) % n):
            root[_find(root, (e.a - 1) * n + i)] = _find(root, (e.b - 1) * n + i)
    ids: dict[int, int] = {}
    return {(c // n + 1, c % n): ids.setdefault(_find(root, c), len(ids)) for c in range(len(root))}


def _basis_cycles(epp: EPP) -> list[int]:
    """Indices in `edges` of the 2g classes whose crossing cycles `period_basis` takes.

    The vertex classes are the components of the corner relation
    (`_vertex_classes`), correct by construction.  Sorts the classes off the
    face tree shortest first, then walks them in reverse and joins the two
    vertex classes at the ends of each by the same union-find.  The classes
    that join nothing are the complement of a spanning tree, returned
    shortest first.  Raises RankMismatch when the Euler characteristic is
    not 2 - 2g, or when other than 2g classes are left: the global guard on
    the gluings.
    """
    n = epp.polygon.n
    g = genus(epp.polygon)
    vclass = _vertex_classes(epp)
    nverts = len(set(vclass.values()))
    chi = nverts - len(epp.edges) + len(epp.images)
    if chi != 2 - 2 * g:
        raise RankMismatch(f"Euler characteristic {chi} != {2 - 2 * g}")
    face_tree = {p[1] for p in epp.face_tree.values() if p is not None}

    def key(cid: int) -> tuple:  # boundary pairs by length, then interior gluings
        e = epp.edges[cid]
        if e.period is None:
            return (1, 0.0, cid)
        return (0, round(abs(complex(e.translation)), 12), cid)

    candidates = sorted((cid for cid in range(len(epp.edges)) if cid not in face_tree), key=key)
    root = list(range(nverts))  # union-find forest over the vertex classes
    cycles = []
    for cid in reversed(candidates):
        e = epp.edges[cid]
        tail = _find(root, vclass[(e.a, e.side)])
        head = _find(root, vclass[(e.a, (e.side + 1) % n)])
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

    Each period is its cycle's translation.  A cycle of zero translation, an
    interior gluing, is replaced by its sum with the first cycle of nonzero
    translation, which keeps the cycles a Z-basis and has that cycle's
    translation.  A basis vector equal to a simple period takes that
    period's kind, and only those periods' channels are decided; any other
    vector is "compound".  The periods are sorted by length, then angle.

    Note the returned *vectors* need not be integer-independent in the plane:
    whenever period ratios are rational the plane vectors satisfy integer
    relations, and the independence statement lives on the surface cycles.
    """
    f = epp.polygon.frame
    # a holonomy is a sum from zero, which also turns a float -0.0 into 0.0
    vectors = [f.zero() + epp.edges[cid].translation for cid in _basis_cycles(epp)]
    scale = epp._scale
    nonzero = next((v for v in vectors if not f.is_zero(v, scale)), None)
    if nonzero is None:
        raise RankMismatch("all basis periods have zero translation")
    vectors = [nonzero if f.is_zero(v, scale) else v for v in vectors]

    periods = []
    for vec in vectors:
        v = _half_plane(f, vec)
        group = epp._group_of(v)
        kind = "compound" if group is None else epp._period(group).kind
        z = complex(v)
        periods.append((round(abs(z), 12), math.atan2(z.imag, z.real), Period(v, kind)))
    periods.sort(key=lambda t: (t[0], t[1]))
    return [p for _n, _a, p in periods]


# ---------------------------------------------------------------------------
# Periodic-orbit channels
# ---------------------------------------------------------------------------


def _march(epp: EPP, face: int, side: int, r: float, u: complex, length: float):
    """March a straight line of `length`, direction u, from side `side` of image `face`.

    The state is (image, side, r), r the position along the side from its
    start corner, the same in both images the side glues: after a crossing
    the point is the partner image's own, with no frame shift.  The exit is
    the nearest side ahead but the one the march stands on (at a corner,
    r = 0, and the one ending there).  Returns the boundary crossings, as
    (image left, side, r), and the end image, or None at a corner.  An image
    with no exit raises ConvergenceFailure.
    """
    tol = _TOL * max(1.0, epp._scale)
    uc = u.conjugate()
    sides, gluing, n = epp._sides_float, epp.gluing, epp.polygon.n
    crossings = []
    while True:
        a, d, _len = sides[face - 1][side]
        z = a + d * r
        behind = (side, (side - 1) % n) if r == 0.0 else (side,)
        best = None
        for t, (a, d, side_len) in enumerate(sides[face - 1]):
            denom = (uc * d).imag
            if t in behind or abs(denom) < 1e-13:
                continue
            wc = (a - z).conjugate()
            s_hit = (wc * d).imag / denom
            r_hit = (wc * u).imag / denom
            if s_hit > 0 and -_TOL <= r_hit <= 1 + _TOL and (best is None or s_hit < best[0]):
                best = (s_hit, t, r_hit, side_len)
        if best is None:
            raise ConvergenceFailure(f"channel march finds no exit from image {face}, side {side}")
        s_hit, side, r, side_len = best
        if length < s_hit - tol:
            return crossings, face
        if min(r, 1 - r) * side_len < tol:
            return crossings, None
        nxt, t_cross = gluing[(face, side)]
        if t_cross:
            crossings.append((face, side, r))
        face = nxt
        length -= s_hit


def _closes(epp: EPP, face: int, side: int, r: float, u: complex, length: float, vector, missed):
    """March the orbit of `vector` from position r along side `side` of image `face`.

    True when it closes: it ends in `face` and its boundary crossings sum
    exactly to `vector`.  False when it ends in an image without closing;
    its start and boundary crossings then go into `missed`, as
    (image, side) -> positions.  None when it runs into a corner.
    """
    crossings, end = _march(epp, face, side, r, u, length)
    if end is None:
        return None
    if end == face:
        f = epp.polygon.frame
        offset = sum((epp.gluing[(fc, s)][1] for fc, s, _r in crossings), f.zero())
        if f.is_zero(offset - vector, epp._scale):
            return True
    missed[(face, side)].append(r)
    for fc, s, rc in crossings:
        missed[(fc, s)].append(rc)
    return False


def channel_exists(epp: EPP, vector) -> bool:
    """Does some straight orbit close up under translation by `vector`?

    Such an orbit, of direction u and length |vector|, crosses a boundary
    side.  Test first: march one orbit from the middle of each boundary side
    not parallel to u, in the image u enters; any orbit that closes proves
    the channel.  The period's own pairs, the group of boundary pairs whose
    translation is +-vector (`EPP._group_of`), go first, then the rest in
    discovery order: on a long period an orbit from one of its own pairs
    usually closes at once.  The order cannot change the verdict, since a
    yes needs any one closing march and a no tests every piece.  Only when
    none closes, cut: from every corner sector that -u enters, march a
    separatrix backward for |vector| (2g-2+V of them at most, V the number
    of vertex classes) and cut the boundary sides it crosses.  Between two
    cuts every orbit runs into no corner and follows the same path, so all
    of them close or none does.  Then test one orbit from the middle of each
    piece.  A march is an (image, side, r) state (`_march`), r = 0 for a
    separatrix, and keeps its boundary crossings only: only those are cut.

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
    angles = epp.polygon.angles

    group = epp._group_of(_half_plane(epp.polygon.frame, vector))
    own = [] if group is None else epp._groups[group]
    missed = defaultdict(list)  # (image, side) -> positions a march that did not close crossed
    sides = []  # (pair, image u enters)
    for e in chain(own, (e for e in epp.edge_pairs if e not in own)):
        _a, d, side_len = epp._sides_float[e.a - 1][e.side]
        cross = ((d / side_len).conjugate() * u).imag
        if abs(cross) <= _TOL:
            continue  # parallel to the orbits: none crosses it
        # image a lies left of its side, or right when it is reflecting
        face = e.a if (cross > 0) != epp.image(e.a).iso.reflecting else e.b
        if _closes(epp, face, e.side, 0.5, u, length, vector, missed):
            return True
        sides.append((e, face))
    cuts = defaultdict(list)  # (image, side) -> positions of its cuts
    for k, image_sides in enumerate(epp._sides_float, 1):
        reflecting = epp.image(k).iso.reflecting
        for i, (_a, d, _len) in enumerate(image_sides):
            # the sector at corner i, the start of side i, turns counterclockwise from `start`
            start = -image_sides[i - 1][1] if reflecting else d
            if _TOL < cmath.phase(-u / start) % (2 * math.pi) < angles[i - 1].radians() - _TOL:
                for face, side, r in _march(epp, k, i, 0.0, -u, length)[0]:
                    cuts[(face, side)].append(r)
    for e, face in sides:
        rs = sorted([0.0, 1.0, *cuts[(e.a, e.side)], *cuts[(e.b, e.side)]])
        for r0, r1 in zip(rs, rs[1:]):
            if any(r0 + _TOL < r < r1 - _TOL
                   for r in chain(missed[(e.a, e.side)], missed[(e.b, e.side)])):
                continue
            if _closes(epp, face, e.side, (r0 + r1) / 2, u, length, vector, missed):
                return True
    return False


def find_pocs(epp: EPP):
    """Simple periods admitting a periodic-orbit channel, with their directions.

    Returns (direction, Period) pairs, direction in [0, pi): the distinct
    periods of `epp.periods` whose kind is "simple-internal", ordered by
    length.  It reads every kind.  The kinds are the pattern's own: each
    distinct period's channel is decided by `channel_exists` at most once
    per pattern, whichever of `find_pocs`, `period_basis` and `EPP.dump`
    asks for it first.
    """
    entries = []
    for p in sorted(epp.periods, key=lambda p: round(abs(complex(p.vector)), 12)):
        if p.kind == "simple-internal":
            z = complex(p.vector)
            entries.append((math.atan2(z.imag, z.real) % math.pi, p))
    return entries
