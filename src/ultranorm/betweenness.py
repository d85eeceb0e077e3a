"""Metric betweenness under the taxicab norm.

Over an ultrametric valued field, z lies metrically between x and y
(||x - y||_1 = ||x - z||_1 + ||z - y||_1, exactly) precisely when every
coordinate of z equals the matching coordinate of x or of y.  The metric
segment of a pair differing in k coordinates therefore has exactly 2**k
points, and the two-point distance sum ||c - b||_1 + ||b - a||_1 attains its
minimum ||c - a||_1 exactly on that segment.

Degenerate triples (z = x or z = y) satisfy the defining equalities
trivially and are reported as between; callers need no case analysis.
"""

from __future__ import annotations

import itertools
import operator

from .errors import (DEFAULT_ENUM_CAP, DimensionMismatchError, EnumerationTooLargeError,
                     InvalidInputError, require_type)
from .fields import Magnitude, _Immutable
from .spaces import NormSpec, Vector, _difference_key, distance

_ONE = NormSpec.one()


def is_metrically_between(x: Vector, z: Vector, y: Vector) -> bool:
    """Exact test of ||x - y||_1 = ||x - z||_1 + ||z - y||_1, with no
    `distance` call and no Fraction.  A z whose every coordinate is x_i or
    y_i itself, as on every point `segment` lists, is between with no
    arithmetic; otherwise the three one-norm keys of `_difference_key`, each
    worth total * p**lo, are compared as integers over their smallest lo."""
    Vector._check(x, y)
    x._check(z)
    for a, c, b in zip(x.coords, z.coords, y.coords):
        if c is not a and c is not b:
            break
    else:
        return True
    p = x.field._p
    keys = [_difference_key(u, v.coords, _ONE) for u, v in ((x, y), (x, z), (z, y))]
    lo = min((key[1] for key in keys if key), default=0)
    whole, left, right = (0 if key is None else key[0] * p ** (key[1] - lo) for key in keys)
    return whole == left + right


def coordinate_between(x: Vector, z: Vector, y: Vector) -> bool:
    """True iff every coordinate of z equals the matching one of x or of y."""
    Vector._check(x, z)
    x._check(y)
    return all(zc == xc or zc == yc for xc, zc, yc in zip(x.coords, z.coords, y.coords))


def differing_positions(x: Vector, y: Vector) -> list[int]:
    Vector._check(x, y)
    return [i for i, (a, b) in enumerate(zip(x.coords, y.coords)) if a != b]


class SegmentEnumeration(_Immutable):
    """The full metric segment between two endpoints.

    `k` counts the coordinates where the endpoints differ; `points` is the
    product of the choices {x_i, y_i}, all 2**k points, with the first
    coordinate varying fastest (x's value before y's).
    """

    __slots__ = ("x", "y", "k", "points")

    def __init__(self, x: Vector, y: Vector, k: int, points: tuple[Vector, ...]):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "points", points)

    def to_json_dict(self) -> dict:
        return {
            "segment": [[str(c) for c in p.coords] for p in self.points],
            "k": self.k,
        }


def segment(x: Vector, y: Vector, cap: int | None = None) -> SegmentEnumeration:
    """Enumerate the metric segment between x and y under the taxicab norm.

    Raises EnumerationTooLargeError when 2**k would exceed the cap (default
    DEFAULT_ENUM_CAP).  Every point is built from the endpoints' own
    scalars, checked once by `Vector._check`, with no per-coordinate check.
    """
    Vector._check(x, y)
    choices = [(a,) if a == b else (a, b) for a, b in zip(x.coords, y.coords)]
    k = sum(len(c) - 1 for c in choices)
    EnumerationTooLargeError.check(2, k, DEFAULT_ENUM_CAP if cap is None else cap,
                                   f"k={k} differing coordinates")
    backwards = itertools.product(*choices[::-1])   # reversed: the first coordinate varies fastest
    points = Vector._each(x.field, map(operator.itemgetter(slice(None, None, -1)), backwards))
    return SegmentEnumeration(x=x, y=y, k=k, points=tuple(points))


def minimize_two_point(
    a: Vector, c: Vector, cap: int | None = None
) -> tuple[Magnitude, SegmentEnumeration]:
    """Minimum of b -> ||c - b||_1 + ||b - a||_1 and the set attaining it.

    The minimum is ||c - a||_1 (triangle inequality, tight on the segment);
    the witnesses are exactly the metric segment of a and c.
    """
    return distance(c, a, _ONE), segment(a, c, cap)


def uniqueness_check(a: Vector, c: Vector, d1: Magnitude, d2: Magnitude) -> list[Vector]:
    """All segment points b with ||c - b||_1 = d1 and ||b - a||_1 = d2.

    Requires dimension 2 and d1 + d2 = ||c - a||_1.  The result is a single
    point whenever |a1 - c1| != |a2 - c2|; equal coordinate valuations can
    admit two witnesses.
    """
    Vector._check(a, a)   # refuses an a or c that is not a Vector
    Vector._check(c, c)
    if a.dim != 2 or c.dim != 2:
        raise DimensionMismatchError("uniqueness check is for dimension 2")
    require_type("distance d1", d1, int, Magnitude)
    require_type("distance d2", d2, int, Magnitude)
    total = distance(c, a, _ONE)
    if d1 + d2 != total:
        raise InvalidInputError(f"d1 + d2 = {d1 + d2} != ||c - a||_1 = {total}")
    return [
        b
        for b in segment(a, c).points
        if distance(c, b, _ONE) == d1 and distance(b, a, _ONE) == d2
    ]
