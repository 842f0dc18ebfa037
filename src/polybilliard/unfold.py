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
images, its edges the edge classes and its vertices the glued corners.  A
spanning tree of the faces and a spanning co-tree of the vertices leave
exactly 2g edge classes over, whose crossing cycles are a Z-basis of the
surface's homology; `period_basis` picks 2g short cycles against that basis
and returns their translation vectors.  Boundary pairs with equal
translations share one simple period (`EPP.periods`).  On first use the
pattern decides, once per distinct period, whether a channel of parallel
periodic orbits runs along it (`channel_exists`: test one orbit from the
middle of each boundary side, and only if none closes, cut the sides at the
separatrices of that direction and test one orbit per piece); `find_pocs`
lists those that do.
"""

from __future__ import annotations

import cmath
import math
from collections import defaultdict, deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import NonIntegerGenus, OrbitExplosion, RankMismatch
from .exactgeom import Polygon
from .ratlinalg import IntegerEchelon, hnf_inverse

__all__ = [
    "Isometry",
    "PolygonImage",
    "Period",
    "EdgePair",
    "EPP",
    "reflect_image",
    "unfold_vertex",
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


@dataclass(frozen=True)
class Isometry:
    """Planar isometry z -> unit(rotation) * (conj z if reflecting else z) + translation.

    `rotation` is a direction index mod 2N: the linear part rotates by
    rotation*pi/N (after the optional conjugation).  Composition is exact.
    """

    reflecting: bool
    rotation: int
    translation: object  # frame vector

    @classmethod
    def identity(cls, frame) -> "Isometry":
        return cls(False, 0, frame.zero())

    def apply(self, frame, z):
        w = z.conjugate() if self.reflecting else z
        return frame.rotate(w, self.rotation) + self.translation

    def compose(self, other: "Isometry", frame) -> "Isometry":
        """self after other."""
        sign = -1 if self.reflecting else 1
        return Isometry(
            self.reflecting ^ other.reflecting,
            (self.rotation + sign * other.rotation) % (2 * frame.N),
            self.apply(frame, other.translation),
        )

    def transport(self, j: int, frame) -> int:
        """Direction index of the image of a vector with direction index j."""
        if self.reflecting:
            return (self.rotation - j) % (2 * frame.N)
        return (self.rotation + j) % (2 * frame.N)


@dataclass(frozen=True, eq=False)
class PolygonImage:
    """One copy of the polygon in the unfolding; index is 1-based, 0 = transient."""

    index: int
    iso: Isometry
    polygon: Polygon = field(repr=False)

    @property
    def parity(self) -> int:
        """0 for even (orientation-preserving), 1 for odd; equals the reflecting flag."""
        return 1 if self.iso.reflecting else 0

    def vertices_float(self) -> list[complex]:
        f = self.polygon.frame
        return [complex(self.iso.apply(f, v)) for v in self.polygon.verts]

    def side_direction(self, s: int) -> int:
        return self.iso.transport(self.polygon.dirs[s], self.polygon.frame)


@dataclass(frozen=True, eq=False)
class Period:
    """A translation leaving the unfolded figure invariant.

    kind: "simple-internal" (a single edge-pair translation along which a
    channel of parallel periodic orbits runs), "structural" (single pair, no
    orbit of that holonomy closes: `channel_exists` is False), "compound"
    (integer chain of pair translations), or None for the bare translation
    an `EdgePair` carries; the pattern's classified periods are `EPP.periods`.
    """

    vector: object
    kind: str | None = None


@dataclass(frozen=True, eq=False)
class EdgePair:
    """Gluing of side `side` of image a to side `side` of image b.

    Crossing from a to b continues the trajectory in the copy of the pattern
    offset by +translation; interior gluings have translation zero.  A
    boundary pair's `period` is its translation with the canonical sign
    (`_half_plane`) and kind None; the classified period it shares with every
    pair of an equal translation is in `EPP.periods`.
    """

    a: int
    b: int
    side: int
    translation: object
    period: Period | None


@dataclass(frozen=True, eq=False)
class EPP:
    """Elementary polygon pattern: 2C images plus the full edge gluing."""

    polygon: Polygon
    images: list[PolygonImage]
    edges: list[EdgePair]  # discovery order, interior and boundary mixed
    C: int

    def image(self, k: int) -> PolygonImage:
        return self.images[k - 1]

    @cached_property
    def edge_pairs(self) -> list[EdgePair]:
        """Boundary pairs: the gluings with a nonzero translation, in discovery order."""
        return [e for e in self.edges if e.period is not None]

    @cached_property
    def periods(self) -> list[Period]:
        """Distinct simple periods in discovery order, each with its kind.

        Boundary pairs whose half-plane translations are equal share one
        period, represented by the first pair found.  Its kind comes from one
        `channel_exists` call, made on first use of the pattern's periods.
        """
        return list(dict.fromkeys(self._period_of.values()))

    @cached_property
    def _period_of(self) -> dict[EdgePair, Period]:
        """Boundary pair -> the classified period of its group of equal translations."""
        f = self.polygon.frame
        out: dict[EdgePair, Period] = {}
        distinct: list[Period] = []
        for e in self.edge_pairs:
            v = e.period.vector
            p = next((q for q in distinct if f.is_zero(v - q.vector, self._scale)), None)
            if p is None:
                p = Period(v, "simple-internal" if channel_exists(self, v) else "structural")
                distinct.append(p)
            out[e] = p
        return out

    @cached_property
    def face_tree(self) -> dict[int, tuple[int, int] | None]:
        """BFS spanning tree of the images over the zero-translation gluings.

        Maps each image to (parent image, index in `edges` of the gluing to
        it), image 1 to None.  `_homology_coords` closes its crossing cycles
        through this tree, and `swf.enumerate_prescriptions` reads off it
        which sides each image's path from image 1 crosses.
        """
        adj: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for cid, e in enumerate(self.edges):
            if e.period is None:
                adj[e.a].append((e.b, cid))
                adj[e.b].append((e.a, cid))
        parent: dict[int, tuple[int, int] | None] = {1: None}
        queue = deque([1])
        while queue:
            k = queue.popleft()
            for k2, cid in adj[k]:
                if k2 not in parent:
                    parent[k2] = (k, cid)
                    queue.append(k2)
        if len(parent) != len(self.images):
            raise RankMismatch("pattern interior is not connected")
        return parent

    @cached_property
    def gluing(self) -> dict:
        """(image, side) -> (neighbor image, crossing translation)."""
        table = {}
        for e in self.edges:
            table[(e.a, e.side)] = (e.b, e.translation)
            table[(e.b, e.side)] = (e.a, -e.translation)
        return table

    @cached_property
    def _gluing_float(self) -> dict:
        """`gluing` with the crossing translations as floats."""
        return {key: (k, complex(t)) for key, (k, t) in self.gluing.items()}

    @cached_property
    def _scale(self) -> float:
        """The polygon's perimeter: the length scale of float tolerances."""
        return self.polygon.perimeter_float()

    @cached_property
    def _verts_float(self) -> list[list[complex]]:
        return [img.vertices_float() for img in self.images]

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


def _side_reflection(image: PolygonImage, s: int) -> Isometry:
    """Reflection of the plane across the line containing side s of the image."""
    poly = image.polygon
    f = poly.frame
    d = image.side_direction(s)
    p0 = image.iso.apply(f, poly.verts[s])
    r = (2 * d) % (2 * f.N)
    return Isometry(True, r, p0 - f.rotate(p0.conjugate(), r))


def reflect_image(image: PolygonImage, edge_id: int) -> PolygonImage:
    """One unfolding step: the mirror copy of the image across its own edge."""
    poly = image.polygon
    if not 0 <= edge_id < poly.n:
        raise ValueError(f"edge {edge_id} out of range for an {poly.n}-gon")
    refl = _side_reflection(image, edge_id)
    return PolygonImage(0, refl.compose(image.iso, poly.frame), poly)


def unfold_vertex(polygon: Polygon, vertex_index: int) -> list[PolygonImage]:
    """Complete fan of images around one vertex: exactly 2q copies.

    The angle (p/q)*pi at the vertex means alternating reflections in the two
    adjacent sides generate a dihedral group of order 2q; the fan lists one
    image per group element, starting from the identity.
    """
    n = polygon.n
    i = vertex_index % n
    q = polygon.angles[(i - 1) % n].q  # angle at vertex i ends side i-1
    out = [PolygonImage(1, Isometry.identity(polygon.frame), polygon)]
    sides = [i, (i - 1) % n]
    for t in range(2 * q - 1):
        nxt = reflect_image(out[-1], sides[t % 2])
        out.append(PolygonImage(t + 2, nxt.iso, polygon))
    closing = reflect_image(out[-1], sides[(2 * q - 1) % 2]).iso
    scale = polygon.perimeter_float()
    if (
        closing.reflecting
        or closing.rotation != 0
        or not polygon.frame.is_zero(closing.translation, scale)
    ):
        raise RuntimeError("vertex fan failed to close: angle bookkeeping bug")
    return out


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

    Only unfolds: no channel is decided here.  The boundary pairs are grouped
    into simple periods and classified on first use of `EPP.periods`.
    """
    f = polygon.frame
    n = polygon.n
    cap = 16 * f.N
    scale = polygon.perimeter_float()
    images = [PolygonImage(1, Isometry.identity(f), polygon)]
    by_orient: dict[tuple[bool, int], int] = {(False, 0): 1}
    glued: set[tuple[int, int]] = set()
    edges: list[EdgePair] = []
    queue: deque[tuple[int, int]] = deque((1, s) for s in range(n))
    while queue:
        k, s = queue.popleft()
        if (k, s) in glued:
            continue
        img = images[k - 1]
        cand = _side_reflection(img, s).compose(img.iso, f)
        other = by_orient.get((cand.reflecting, cand.rotation))
        if other is None:
            if len(images) >= cap:
                raise OrbitExplosion(
                    f"more than {cap} images; the orientation dedup must be broken"
                )
            k2 = len(images) + 1
            images.append(PolygonImage(k2, cand, polygon))
            by_orient[(cand.reflecting, cand.rotation)] = k2
            edges.append(EdgePair(k, k2, s, f.zero(), None))
            glued.add((k, s))
            glued.add((k2, s))
            queue.extend((k2, s2) for s2 in range(n))
        else:
            if (other, s) in glued:
                raise RuntimeError("edge pairing inconsistency: slot glued twice")
            t = cand.translation - images[other - 1].iso.translation
            if f.is_zero(t, scale):
                edges.append(EdgePair(k, other, s, f.zero(), None))
            else:
                edges.append(EdgePair(k, other, s, t, Period(_half_plane(f, t), None)))
            glued.add((k, s))
            glued.add((other, s))
    if len(images) != 2 * f.N:
        raise RuntimeError(
            f"unfolding closed with {len(images)} images, expected {2 * f.N}"
        )
    if len(edges) != n * f.N or len(glued) != 2 * n * f.N:
        raise RuntimeError("edge pairing incomplete after BFS closure")
    return EPP(polygon, images, edges, f.N)


# ---------------------------------------------------------------------------
# Homology of the glued surface
# ---------------------------------------------------------------------------


def _vertex_classes(epp: EPP) -> dict[tuple[int, int], int]:
    """(image, vertex) -> id of the glued vertex of the surface at that corner.

    Going around a vertex of the surface crosses the two adjacent sides
    alternately, 2q times in total, and its developed image closes up, so the
    accumulated translation must vanish — both facts are asserted.
    """
    poly = epp.polygon
    f = poly.frame
    n = poly.n
    scale = poly.perimeter_float()
    vclass: dict[tuple[int, int], int] = {}
    count = 0
    for k in range(1, len(epp.images) + 1):
        for i in range(n):
            if (k, i) in vclass:
                continue
            hol = f.zero()
            cur, toggle, steps = k, 0, 0
            while True:
                vclass[(cur, i)] = count
                s = i if toggle == 0 else (i - 1) % n
                cur, t = epp.gluing[(cur, s)]
                hol = hol + t
                toggle ^= 1
                steps += 1
                if cur == k and toggle == 0:
                    break
                if steps > 2 * len(epp.images):
                    raise RankMismatch("vertex walk failed to close")
            q = poly.angles[(i - 1) % n].q
            if steps != 2 * q:
                raise RankMismatch(
                    f"vertex class at corner ({k},{i}) has {steps} corners, expected {2 * q}"
                )
            if not f.is_zero(hol, scale):
                raise RankMismatch("vertex loop has nonzero holonomy")
            count += 1
    return vclass


def _homology_coords(epp: EPP) -> tuple[list[int], dict[int, list[int]]]:
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
    chi = nverts - len(epp.edges) + len(epp.images)
    if chi != 2 - 2 * g:
        raise RankMismatch(f"Euler characteristic {chi} != {2 - 2 * g}")
    face_tree = {p[1] for p in epp.face_tree.values() if p is not None}
    ends: dict[int, tuple[int, int]] = {}  # class id -> (tail, head) vertex class
    adj: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
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
    up: dict[int, tuple[int, int, int] | None] = {0: None}
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


def period_basis(epp: EPP) -> list[Period]:
    """2g independent periods of the unfolded figure.

    Cycles on the glued surface are built from a tree and a co-tree
    (Eppstein 2003): a spanning tree of the images over zero-translation
    gluings, and a spanning tree of the glued vertices over the remaining
    edge classes.  The 2g edge classes in neither tree have crossing cycles
    that form a Z-basis of the homology by construction — each pairs to
    +-1 with its own primal cycle and to 0 with every other — so every cycle
    of the pattern, in particular every simple period, has integer
    coordinates over them (`_homology_coords`).

    The returned basis is chosen greedily among crossing cycles by ascending
    period length (Erickson & Whittlesey 2005), completed by chained
    (compound) cycles; an echelon over Z tests independence and yields
    d = |det A|, A the coordinates of the accepted cycles.  The basis is the
    Hermite normal form of the homology lattice over those cycles, taken in
    integers as that of d * Z^2g * A^-1 (`hnf_inverse`) divided by d.

    Note the returned *vectors* need not be integer-independent in the plane:
    whenever period ratios are rational the plane vectors satisfy integer
    relations, and the independence statement lives on the surface cycles.
    """
    poly = epp.polygon
    f = poly.frame
    g = genus(poly)
    _leftover, coords = _homology_coords(epp)

    candidates = []  # (sort key, class id): boundary pairs by length, then interior
    for cid in coords:
        e = epp.edges[cid]
        if e.period is None:
            candidates.append(((1, 0.0, cid), cid))
        else:
            norm = abs(complex(e.translation))
            candidates.append(((0, round(norm, 12), cid), cid))
    candidates.sort(key=lambda c: c[0])
    ech = IntegerEchelon(2 * g)
    accepted = [cid for _key, cid in candidates if ech.try_insert(coords[cid])]
    if len(accepted) != 2 * g:
        raise RankMismatch(
            f"found {len(accepted)} independent cycles, genus demands {2 * g}"
        )

    # In coordinates over the accepted cycles (rows of A), the homology
    # lattice Z^2g is generated by the rows of A^-1 = (d * A^-1) / d.
    d = ech.det
    hermite = hnf_inverse([coords[cid] for cid in accepted], d)
    out_coords = [[Fraction(h, d) for h in row] for row in hermite]

    def holonomy_of(cvec) -> object:
        vec = f.zero()
        for c, cid in zip(cvec, accepted):
            if c:
                vec = vec + epp.edges[cid].translation * c
        return vec

    vectors = [holonomy_of(c) for c in out_coords]
    scale = poly.perimeter_float()
    nonzero = next(
        (j for j, v in enumerate(vectors) if not f.is_zero(v, scale)), None
    )
    if nonzero is None:
        raise RankMismatch("all basis periods have zero translation")
    for j, v in enumerate(vectors):
        if f.is_zero(v, scale):
            out_coords[j] = [
                a + b for a, b in zip(out_coords[j], out_coords[nonzero])
            ]
            vectors[j] = holonomy_of(out_coords[j])

    periods = []
    for vec in vectors:
        v = _half_plane(f, vec)
        simple = next((p for p in epp.periods if f.is_zero(v - p.vector, scale)), None)
        kind = "compound" if simple is None else simple.kind
        z = complex(v)
        periods.append((round(abs(z), 12), math.atan2(z.imag, z.real), Period(v, kind)))
    periods.sort(key=lambda t: (t[0], t[1]))
    return [p for _n, _a, p in periods]


# ---------------------------------------------------------------------------
# Periodic-orbit channels
# ---------------------------------------------------------------------------


def _march(epp: EPP, face: int, z: complex, u: complex, length: float):
    """March a straight line of `length` from z in image `face`, direction u.

    Crossing a glued side moves the march to the partner image and shifts
    the local frame by the pair's float translation.  Returns the crossings,
    as (image, side, r) with r the crossing's position along the side from
    its start corner (the same in both images the side glues), and the image
    the march ends in, or None when it runs into a corner.  Every step
    advances by more than the tolerance, so the march ends; an image it
    finds no exit from raises RuntimeError.
    """
    tol = _TOL * max(1.0, epp._scale)
    uc = u.conjugate()
    crossings = []
    while True:
        verts = epp._verts_float[face - 1]
        n = len(verts)
        best = None
        for t in range(n):
            w, d = verts[t] - z, verts[(t + 1) % n] - verts[t]
            denom = (uc * d).imag
            if abs(denom) < 1e-13:
                continue
            s_hit = (w.conjugate() * d).imag / denom
            r_hit = (w.conjugate() * u).imag / denom
            if s_hit > tol and -_TOL <= r_hit <= 1 + _TOL and (best is None or s_hit < best[0]):
                best = (s_hit, t, r_hit, abs(d))
        if best is None:
            raise RuntimeError(f"march from {z:.12g} finds no exit from image {face}")
        s_hit, side, r, side_len = best
        if length < s_hit - tol:
            return crossings, face
        if min(r, 1 - r) * side_len < tol:
            return crossings, None
        crossings.append((face, side, r))
        face, t_cross = epp._gluing_float[(face, side)]
        z = z + s_hit * u - t_cross
        length -= s_hit


def _closes(epp: EPP, face: int, z: complex, u: complex, length: float, vector):
    """March the orbit of `vector` from z on a side of image `face`.

    True when it closes: it ends in `face` with an accumulated translation
    exactly equal to `vector`.  False when it ends in an image without
    closing, None when it runs into a corner.
    """
    crossings, end = _march(epp, face, z, u, length)
    if end is None:
        return None
    if end != face:
        return False
    f = epp.polygon.frame
    offset = sum((epp.gluing[(fc, s)][1] for fc, s, _r in crossings), f.zero())
    return f.is_zero(offset - vector, epp._scale)


def channel_exists(epp: EPP, vector) -> bool:
    """Does some straight orbit close up under translation by `vector`?

    Such an orbit, of direction u and length |vector|, crosses a boundary
    side.  Test first: march one orbit from the middle of each boundary side
    not parallel to u, in the image u enters; any orbit that closes proves
    the channel.  The sides whose crossing translation is +-vector (the
    period's own pairs) go first, then the rest in discovery order: on a
    long period an orbit from one of its own pairs usually closes at once.
    The order cannot change the verdict, since a yes needs any one closing
    march and a no tests every piece.  Only when none closes, cut: from
    every corner sector that -u enters, march a separatrix backward for
    |vector| (2g-2+V of them at most, V the number of vertex classes) and
    cut the sides it crosses.  Between two cuts every orbit runs into no
    corner and follows the same path, so all of them close or none does.
    Then test one orbit from the middle of each piece, skipping the piece
    that holds a side's middle when the first march from there ran into no
    corner: it tested that piece.
    """
    tgt = complex(vector)
    length = abs(tgt)
    u = tgt / length
    angles, n = epp.polygon.angles, epp.polygon.n
    tol = _TOL * max(1.0, epp._scale)

    def foreign(e: EdgePair) -> bool:
        t = epp._gluing_float[(e.a, e.side)][1]
        return min(abs(t - tgt), abs(t + tgt)) > tol

    sides = []  # (pair, image u enters, side ends, the middle's piece is tested)
    for e in sorted(epp.edge_pairs, key=foreign):
        verts = epp._verts_float[e.a - 1]
        d = verts[(e.side + 1) % n] - verts[e.side]
        cross = ((d / abs(d)).conjugate() * u).imag
        if abs(cross) <= _TOL:
            continue  # parallel to the orbits: none crosses it
        # image a lies left of its side, or right when it is reflecting
        face = e.a if (cross > 0) != epp.image(e.a).iso.reflecting else e.b
        verts = epp._verts_float[face - 1]
        a, b = verts[e.side], verts[(e.side + 1) % n]
        middle = _closes(epp, face, a + (b - a) * 0.5, u, length, vector)
        if middle:
            return True
        sides.append((e, face, a, b, middle is False))
    cuts = defaultdict(list)  # (image, side) -> positions of its cuts
    for k, verts in enumerate(epp._verts_float, 1):
        reflecting = epp.image(k).iso.reflecting
        for i, z in enumerate(verts):
            # the sector at corner i turns counterclockwise from `start`
            start = (verts[i - 1] if reflecting else verts[(i + 1) % n]) - z
            if _TOL < cmath.phase(-u / start) % (2 * math.pi) < angles[i - 1].radians() - _TOL:
                for face, side, r in _march(epp, k, z, -u, length)[0]:
                    cuts[(face, side)].append(r)
    for e, face, a, b, tested in sides:
        rs = sorted([0.0, 1.0, *cuts[(e.a, e.side)], *cuts[(e.b, e.side)]])
        for r0, r1 in zip(rs, rs[1:]):
            if tested and r0 < 0.5 < r1:
                continue
            if _closes(epp, face, a + (b - a) * ((r0 + r1) / 2), u, length, vector):
                return True
    return False


def find_pocs(epp: EPP):
    """Simple periods admitting a periodic-orbit channel, with their directions.

    Returns (direction, Period) pairs, direction in [0, pi): the distinct
    periods of `epp.periods` whose kind is "simple-internal", ordered by
    length.  The kinds are the pattern's own: each distinct period's channel
    is decided by `channel_exists` at most once per pattern, whichever of
    `find_pocs`, `period_basis` and `EPP.dump` asks first.
    """
    entries = []
    for p in sorted(epp.periods, key=lambda p: round(abs(complex(p.vector)), 12)):
        if p.kind == "simple-internal":
            z = complex(p.vector)
            entries.append((math.atan2(z.imag, z.real) % math.pi, p))
    return entries
