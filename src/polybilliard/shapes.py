"""Ready-made polygons: the shapes the test suite and docs keep reaching for."""

from __future__ import annotations

from fractions import Fraction

from .cyclo import CycloField
from .errors import OutOfRange
from .exactgeom import Polygon, validate_polygon

__all__ = [
    "square",
    "rectangle",
    "l_shape",
    "parallelogram_pi3",
    "equilateral",
    "isosceles_pi5",
    "broken_parallelogram",
    "right_triangle_rationalized",
]


def square(side=1) -> Polygon:
    return rectangle(side, side, name="square")


def rectangle(width, height, name: str | None = None) -> Polygon:
    w, h = Fraction(width), Fraction(height)
    return validate_polygon(
        ["1/2"] * 4, [w, h, w, h], name=name or f"rectangle {w}x{h}"
    )


def l_shape(x1=1, y1=1, x2=2, y2=2) -> Polygon:
    """Rectangle x2 * y2 with the corner rectangle above (x1, y1) cut away.

    Vertices (0,0), (x2,0), (x2,y1), (x1,y1), (x1,y2), (0,y2); the reflex
    vertex sits at (x1, y1).  Requires 0 < x1 < x2 and 0 < y1 < y2.
    """
    x1, y1, x2, y2 = map(Fraction, (x1, y1, x2, y2))
    if not (0 < x1 < x2 and 0 < y1 < y2):
        raise OutOfRange("need 0 < x1 < x2 and 0 < y1 < y2")
    angles = ["1/2", "1/2", "3/2", "1/2", "1/2", "1/2"]
    lengths = [x2, y1, x2 - x1, y2 - y1, x1, y2]
    return validate_polygon(angles, lengths, name=f"L-shape {x1},{y1},{x2},{y2}")


def parallelogram_pi3(a=Fraction(2, 3)) -> Polygon:
    """Parallelogram with base 1, side a, and acute angle pi/3."""
    a = Fraction(a)
    return validate_polygon(
        ["2/3", "1/3", "2/3", "1/3"], [1, a, 1, a], name=f"pi/3-parallelogram a={a}"
    )


def equilateral(side=1) -> Polygon:
    s = Fraction(side)
    return validate_polygon(["1/3"] * 3, [s, s, s], name="equilateral triangle")


def isosceles_pi5(base=1) -> Polygon:
    """Isosceles triangle with apex pi/5 and base angles 2pi/5.

    The legs are (1+sqrt(5))/2 times the base — exact in Q(zeta_20) but
    irrational, so the period relations of this billiard are irrational too.
    """
    return validate_polygon(
        ["2/5", "1/5", "2/5"], [Fraction(base), None, None], name="pi/5 isosceles triangle"
    )


def broken_parallelogram() -> Polygon:
    """Hexagon with one reflex vertex, angles {2pi/3, pi/2, 3pi/2, pi/2, pi/2, pi/3}.

    A parallelogram-like outline broken by a notch; the smallest example in
    this catalog whose unfolding needs more than two independent periods per
    direction (genus 5).
    """
    angles = ["2/3", "1/2", "3/2", "1/2", "1/2", "1/3"]
    # sides 2, 2, sqrt(3)/2, 1, sqrt(3)/2, 4; the sqrt(3)/2 pair is parallel,
    # so the closure system cannot solve for it — pass it exactly instead
    cos30 = CycloField(24).zeta(2).real  # cos(pi/6), N = lcm of denominators = 6
    return validate_polygon(
        angles, [2, 2, cos30, 1, cos30, 4], name="broken parallelogram"
    )


def right_triangle_rationalized() -> Polygon:
    """Right triangle with the acute angles 0.353*pi and 0.147*pi.

    A rational stand-in for the (sqrt(2)/4)*pi right triangle; the huge angle
    denominators (N=1000) push the geometry into float mode.
    """
    return validate_polygon(
        ["353/1000", "1/2", "147/1000"], [1, None, None], name="rationalized right triangle"
    )
