"""Bit-for-bit digest of the analyze path: unfolding, period basis, lattice.

Each input runs `build_epp`, `period_basis` and `period_lattice`, and its
record holds every image's flag, rotation and translation, every gluing, the
face tree, the basis vectors and the lattice's pair, coefficients, shifts and
`fracs`.  An exact element is written as (den, list of numerator items), so
the order of its monomial keys counts, since `complex()` sums in it; a float
is written with `float.hex`.  No channel kind is read there.  The digests
were recorded from the code before its interpreter-level speed-ups, which
must keep every bit.

A second digest per input group pins the channel verdicts (`_kinds`): every
simple period of `EPP.periods` with its kind, and every basis period's kind.
It was recorded from the march in developed coordinates, one float copy of
the polygon per image, before the march moved into the base polygon's own
coordinates.
"""

import hashlib
import random
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

from polybilliard import shapes
from polybilliard.cyclo import Cyclo
from polybilliard.errors import BilliardError
from polybilliard.exactgeom import load_polygon, validate_polygon
from polybilliard.lattice import period_lattice
from polybilliard.unfold import build_epp, period_basis

POLYGONS = Path(__file__).resolve().parent.parent / "polygons"

TRIANGLE_DENOMINATORS = (6, 8, 10, 12, 16, 20, 38, 44, 50, 60, 76, 100)
NUMERATORS_PER_DENOMINATOR = 3


def _scalar(x):
    if isinstance(x, Cyclo):
        return ("c", x.den, list(x.num.items()))
    if isinstance(x, Fraction):
        return ("q", x.numerator, x.denominator)
    if isinstance(x, int):
        return ("i", x)
    z = complex(x)
    return ("f", z.real.hex(), z.imag.hex())


def _record(polygon) -> str:
    epp = build_epp(polygon)
    images = [(reflecting, rotation, _scalar(t)) for reflecting, rotation, t in epp.images]
    gluings = [(e.a, e.b, e.side, e.interior, _scalar(e.translation)) for e in epp.edges]
    basis = period_basis(epp)
    lat = period_lattice(polygon.frame, basis)
    fracs = None if lat.fracs is None else [[_scalar(a) for a in row] for row in lat.fracs]
    return repr((
        polygon.frame.exact,
        images,
        gluings,
        # the face tree as the (image, (parent, creating gluing)) items it was recorded as
        [(k, None if cid is None else (epp.gluings[cid][0], cid)) for k, cid in enumerate(epp.face_tree, 1)],
        [_scalar(p.vector) for p in basis],
        lat.pair_indexes,
        [[_scalar(a) for a in row] for row in lat.coeffs],
        lat.shifts,
        fracs,
    ))


def _triangle(a: int, n: int):
    return validate_polygon([Fraction(a, n), "1/2", Fraction(1, 2) - Fraction(a, n)],
                            [1, None, None], name=f"triangle {a}/{n}")


def _triangles():
    out = []
    for n in TRIANGLE_DENOMINATORS:
        cycle = [a for a in range(1, n // 2) if gcd(a, n) == 1][:NUMERATORS_PER_DENOMINATOR]
        out += [_triangle(a, n) for a in cycle]
    return out + [_triangle(353, 1000)]


def _quadrilaterals(count: int = 80, seed: int = 5):
    """Quadrilaterals with three angles p/q, q in a fixed set, the fourth closing.

    No angle is pi and 2*lcm of the denominators stays at most 48; sides 0
    and 1 have lengths p/q with p, q in 1..6, and closure solves sides 2 and 3.
    A draw that fails to make a simple polygon is skipped.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        angles = []
        for _ in range(3):
            q = rng.choice((2, 3, 4, 5, 6, 8, 10, 12))
            angles.append(Fraction(rng.randrange(1, 2 * q), q))
        angles.append(2 - sum(angles))
        if not all(0 < a < 2 and a != 1 for a in angles):
            continue
        if 2 * lcm(*(a.denominator for a in angles)) > 48:
            continue
        lengths = [Fraction(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(2)]
        try:
            out.append(validate_polygon(angles, lengths + [None, None]))
        except BilliardError:
            continue
    return out


INPUTS = {
    "bundled": lambda: [load_polygon(p) for p in sorted(POLYGONS.glob("*.json"))],
    "shapes": lambda: [shapes.square(), shapes.rectangle(3, 2), shapes.l_shape(),
                       shapes.parallelogram_pi3(), shapes.equilateral(),
                       shapes.isosceles_pi5(), shapes.broken_parallelogram(),
                       shapes.right_triangle_rationalized()],
    "triangles": _triangles,
    "quadrilaterals": _quadrilaterals,
}

ANALYZE_PATH_SHA256 = {
    "bundled": "ca31b2d117cdff00eb9dd1ed5348e8970c9b1ea531edcae2f5a8fb331204f638",
    "shapes": "f44b893cc8b4cc4a24b52a61c06c72cfaf7c6d909935670b5e79771ec5277def",
    "triangles": "181a314bed3e3aff92849b32f1043e24e0b61d8a0a9881cb426ffb13affed3b3",
    "quadrilaterals": "bcfb571b3a3d8b1c1e5b0aab95f98f00a7f679695f976c1f1e60ce040deda22f",
}


@pytest.mark.parametrize("group", sorted(INPUTS))
def test_analyze_path_is_bit_for_bit(group):
    h = hashlib.sha256()
    for polygon in INPUTS[group]():
        h.update(_record(polygon).encode())
    assert h.hexdigest() == ANALYZE_PATH_SHA256[group]


def _kinds(polygon) -> str:
    epp = build_epp(polygon)
    periods = [(_scalar(p.vector), p.kind) for p in epp.periods]
    return repr((periods, [p.kind for p in period_basis(epp)]))


CHANNEL_KINDS_SHA256 = {
    "bundled": "f313f1743cca7808aa5e80a7df052b140f5ffb29749efcd79c685078dfee5ac0",
    "shapes": "34023c8c006f3ee5648cb441c640843fe478fcd6ab1a898aa15fba002aff0339",
    "triangles": "f7b8fb6e7ab36e6644c9075f1ff6e01b026f7e79de17ec8e19723981c8cd54b8",
    "quadrilaterals": "b5f41682a74362ba184bf9aeaaa14558e7191c25ebf8d8e15978306f759deae0",
}


@pytest.mark.parametrize("group", sorted(INPUTS))
def test_channel_kinds_are_bit_for_bit(group):
    """Every simple period's vector and kind, and every basis period's kind."""
    h = hashlib.sha256()
    for polygon in INPUTS[group]():
        h.update(_kinds(polygon).encode())
    assert h.hexdigest() == CHANNEL_KINDS_SHA256[group]
