"""Seeded test fixtures built on the package: random isometries and probe grids,
and a check that a point behaves as one the `Vector` constructor built.

Unlike `naive.py`, which imports nothing from the package, these generators
build package objects (`TableMap`, `AffineMap`, `AxialIsometry`, `Vector`) and
draw through `ultranorm.sampling`, so a seed gives the same draws everywhere.
"""

from __future__ import annotations

import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from ultranorm.errors import InvalidInputError
from ultranorm.fields import GF, PADIC, FieldSpec
from ultranorm.isometry import AffineMap, AxialIsometry, ScalarIsometry, TableMap
from ultranorm.sampling import random_scalar, random_vector
from ultranorm.spaces import Vector


def random_scalar_isometry(field: FieldSpec, rng: random.Random,
                           centred: bool = False) -> ScalarIsometry:
    """Finite fields: a random bijection table; rationals: a random affine
    map with unit slope."""
    if field.kind == GF:
        q = field.prime
        if centred:
            rest = list(range(1, q))
            rng.shuffle(rest)
            images = [0] + rest
        else:
            images = list(range(q))
            rng.shuffle(images)
        return TableMap.from_residues(field, images)
    u = random_scalar(field, rng, unit=True)
    c = field.zero if centred else random_scalar(field, rng)
    return AffineMap(u, c)


def random_axial_isometry(field: FieldSpec, n: int, rng: random.Random,
                          centred: bool = False) -> AxialIsometry:
    sigma = list(range(n))
    rng.shuffle(sigma)
    taus = tuple(random_scalar_isometry(field, rng, centred) for _ in range(n))
    translation = Vector.zero(field, n) if centred else random_vector(field, n, rng)
    return AxialIsometry(tuple(sigma), taus, translation)


def _value_ladder(field: FieldSpec) -> list[Fraction]:
    """Distinct scalar values with spread valuations, deterministic order."""
    if field.kind == PADIC:
        p = field.prime
        raw = [
            Fraction(1), Fraction(p), Fraction(1, p), Fraction(2),
            Fraction(p + 1), Fraction(p * p), Fraction(1, p * p),
            Fraction(2 * p), Fraction(2, p), Fraction(3), Fraction(p + 2),
            Fraction(3, p), Fraction(1, 2),
        ]
    else:
        raw = [Fraction(k) for k in range(1, 14)]
    return list(dict.fromkeys(raw))


def probe_grid(field: FieldSpec, n: int, size: int) -> list[Vector]:
    """A deterministic probe set of exactly `size` points over a rational
    field: the origin, then axis points (what `decompose` reads), then mixed
    points in widening shells."""
    if field.kind == GF:
        raise InvalidInputError("finite fields enumerate exactly; no grid needed")
    ladder = _value_ladder(field)
    pool: list[Vector] = [Vector.zero(field, n)]
    seen = {pool[0]}

    def push(vec: Vector) -> None:
        if vec not in seen:
            seen.add(vec)
            pool.append(vec)

    for value in ladder:
        for i in range(n):
            coords = [Fraction(0)] * n
            coords[i] = value
            push(Vector.make(field, coords))
    for width in range(3, len(ladder) + 1):
        shell = [Fraction(0)] + ladder[: width - 1]
        for combo in itertools.product(shell, repeat=n):
            push(Vector.make(field, combo))
        if len(pool) >= size:
            break
    if len(pool) < size:
        raise InvalidInputError(f"grid over {field} maxes out at {len(pool)} < {size} points")
    return pool[:size]


def assert_like_a_constructed_vector(point: Vector, field: FieldSpec) -> None:
    """`point` is a Vector that `Vector(field, point.coords)` would equal in
    every observable way, as the points `segment` and `enumerate_space`
    build with no per-coordinate check must be."""
    assert type(point) is Vector and point.field is field and type(point.coords) is tuple
    built = Vector(field, point.coords)
    assert point == built and hash(point) == hash(built)
    for copier in (lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy):
        assert copier(point) == point
    with pytest.raises(AttributeError):
        point.coords = built.coords
    assert point._raw_values() == tuple(c.value for c in point.coords)
