"""Metric betweenness under the taxicab norm.

Over an ultrametric valued field, z lies metrically between x and y
(||x - y||_1 = ||x - z||_1 + ||z - y||_1, exactly) precisely when every
coordinate of z equals the matching coordinate of x or of y.  The metric
segment of a pair differing in k coordinates therefore has exactly 2**k
points, and the two-point distance sum ||c - b||_1 + ||b - a||_1 attains its
minimum ||c - a||_1 exactly on that segment.

Degenerate triples (z = x, z = y, or x = y) satisfy the defining equalities
trivially and are reported as between; callers need no case analysis.
"""

from __future__ import annotations

import itertools

from .errors import (DEFAULT_ENUM_CAP, DimensionMismatchError, EnumerationTooLargeError,
                     InvalidInputError, require_type)
from .fields import Magnitude, Scalar, _exponent, _Immutable
from .spaces import NormSpec, Vector, distance

_ONE = NormSpec.one()


def is_metrically_between(x: Vector, z: Vector, y: Vector) -> bool:
    """Exact test of ||x - y||_1 = ||x - z||_1 + ||z - y||_1 in one pass over
    the coordinates: both sides are sums of p**e_i, compared as integers
    p**(e_i - lo) over the smallest exponent lo, with no `distance` call and
    no Fraction.  Where z_i is x_i or y_i itself, e(x_i, y_i) is the one
    nonzero term of its coordinate on each side, so one exponent is read."""
    Vector._check(x, y)
    x._check(z)
    p = x.field._p
    whole, parts = [], []   # the exponents of x - y, and of x - z and z - y
    for a, c, b in zip(x.coords, z.coords, y.coords):
        e = _exponent_of_difference(a, b, p)
        if e is not None:
            whole.append(e)
        if c is a or c is b:   # segment points share their endpoints' scalars
            if e is not None:
                parts.append(e)
        else:
            for f in (_exponent_of_difference(a, c, p), _exponent_of_difference(c, b, p)):
                if f is not None:
                    parts.append(f)
    lo = min(whole + parts, default=0)
    return sum(p ** (e - lo) for e in whole) == sum(p ** (e - lo) for e in parts)


def _exponent_of_difference(a: Scalar, b: Scalar, p: int) -> int | None:
    """e with |a - b| = p**e, None when a = b, by `_difference_key`'s rule:
    the larger kept exponent where they differ (isosceles), else
    `_exponent`.  It serves only `is_metrically_between`: `_difference_key`
    keeps the rule inline, since a call per coordinate there slows
    `verify_isometry`."""
    if a is b:
        return None
    if (ea := a._abs_exponent()) != (eb := b._abs_exponent()):
        return eb if ea is None else ea if eb is None else max(ea, eb)
    return None if ea is None else _exponent(a.value, b.value, p)


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
    DEFAULT_ENUM_CAP).
    """
    Vector._check(x, y)
    choices = [(a,) if a == b else (a, b) for a, b in zip(x.coords, y.coords)]
    k = sum(len(c) - 1 for c in choices)
    EnumerationTooLargeError.check(2, k, DEFAULT_ENUM_CAP if cap is None else cap,
                                   f"k={k} differing coordinates")
    points = (Vector(x.field, p[::-1]) for p in itertools.product(*choices[::-1]))
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
