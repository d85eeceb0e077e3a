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

from dataclasses import dataclass

from .errors import DimensionMismatchError, EnumerationTooLargeError, InvalidInputError
from .fields import Magnitude
from .spaces import NormSpec, Vector, distance

_ONE = NormSpec.one()

DEFAULT_ENUM_CAP = 2 ** 16


def is_metrically_between(x: Vector, z: Vector, y: Vector) -> bool:
    """Exact test of ||x - y||_1 = ||x - z||_1 + ||y - z||_1."""
    return distance(x, y, _ONE) == distance(x, z, _ONE) + distance(y, z, _ONE)


def coordinate_between(x: Vector, z: Vector, y: Vector) -> bool:
    """True iff every coordinate of z equals the matching one of x or of y."""
    x._check(z)
    x._check(y)
    return all(zc == xc or zc == yc for xc, zc, yc in zip(x.coords, z.coords, y.coords))


def differing_positions(x: Vector, y: Vector) -> list[int]:
    x._check(y)
    return [i for i, (a, b) in enumerate(zip(x.coords, y.coords)) if a != b]


@dataclass(frozen=True)
class SegmentEnumeration:
    """The full metric segment between two endpoints.

    `k` counts the coordinates where the endpoints differ; `points` holds all
    2**k coordinate mixtures in binary-counter order (bit j of the counter
    set means: take y's value at the j-th differing position).
    """

    x: Vector
    y: Vector
    k: int
    points: tuple[Vector, ...]

    def to_json_dict(self) -> dict:
        return {
            "segment": [[str(c) for c in p.coords] for p in self.points],
            "k": self.k,
        }


def segment(x: Vector, y: Vector, cap: int | None = None) -> SegmentEnumeration:
    """Enumerate the metric segment between x and y under the taxicab norm.

    Raises EnumerationTooLargeError when 2**k would exceed the cap (default
    2**16).
    """
    positions = differing_positions(x, y)
    k = len(positions)
    EnumerationTooLargeError.check(2, k, DEFAULT_ENUM_CAP if cap is None else cap,
                                   f"k={k} differing coordinates")
    points = []
    for counter in range(2 ** k):
        coords = list(x.coords)
        for j, pos in enumerate(positions):
            if counter >> j & 1:
                coords[pos] = y.coords[pos]
        points.append(Vector(x.field, tuple(coords)))
    return SegmentEnumeration(x=x, y=y, k=k, points=tuple(points))


def minimize_two_point(
    a: Vector, c: Vector, cap: int | None = None
) -> tuple[Magnitude, SegmentEnumeration]:
    """Minimum of b -> ||c - b||_1 + ||b - a||_1 and the set attaining it.

    The minimum is ||c - a||_1 (triangle inequality, tight on the segment);
    the witnesses are exactly the metric segment of a and c.
    """
    return distance(c, a, _ONE), segment(a, c, cap)


def uniqueness_check(
    a: Vector, c: Vector, d1: Magnitude, d2: Magnitude, cap: int | None = None
) -> list[Vector]:
    """All segment points b with ||c - b||_1 = d1 and ||b - a||_1 = d2.

    Requires dimension 2 and d1 + d2 = ||c - a||_1.  The result is a single
    point whenever |a1 - c1| != |a2 - c2|; equal coordinate valuations can
    admit two witnesses.
    """
    if a.dim != 2 or c.dim != 2:
        raise DimensionMismatchError("uniqueness check is for dimension 2")
    total = distance(c, a, _ONE)
    if d1 + d2 != total:
        raise InvalidInputError(f"d1 + d2 = {d1 + d2} != ||c - a||_1 = {total}")
    return [
        b
        for b in segment(a, c, cap).points
        if distance(c, b, _ONE) == d1 and distance(b, a, _ONE) == d2
    ]
