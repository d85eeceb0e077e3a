"""Seeded sample generators for axiom sweeps, tests, and probe grids.

Everything here is driven by a caller-supplied random.Random (reproducible)
or is fully deterministic (grids).  p-adic scalars are produced as
unit * p**e so their valuations actually spread across the value group.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .errors import DEFAULT_ENUM_CAP, EnumerationTooLargeError, InvalidInputError
from .fields import GF, PADIC, FieldSpec, Scalar
from .isometry import AffineMap, AxialIsometry, ScalarIsometry, TableMap
from .spaces import Vector


def random_scalar(field: FieldSpec, rng: random.Random,
                  nonzero: bool = False, unit: bool = False) -> Scalar:
    """A random field element; `unit` forces valuation 1 (rational fields:
    numerator and denominator coprime to p).  Other p-adic values carry a
    factor p**e with e drawn from -3..3."""
    if field.kind == GF:
        lo = 1 if (nonzero or unit) else 0
        return Scalar(field, rng.randrange(lo, field.prime))
    if not (nonzero or unit) and rng.random() < 0.125:
        return field.zero
    p = field.prime if field.kind == PADIC else 0
    while True:
        num = rng.choice([-1, 1]) * rng.randint(1, 9)
        den = rng.randint(1, 9)
        if p and (num % p == 0 or den % p == 0):
            continue
        break
    value = Fraction(num, den)
    if field.kind == PADIC and not unit:
        value *= Fraction(p) ** rng.randint(-3, 3)
    return Scalar(field, value)


def random_vector(field: FieldSpec, n: int, rng: random.Random) -> Vector:
    return Vector(field, tuple(random_scalar(field, rng) for _ in range(n)))


def norm_axiom_samples(field: FieldSpec, n: int, count: int,
                       rng: random.Random) -> list[tuple[Vector, Vector, Scalar]]:
    """(x, y, lam) triples for norm-axiom sweeps.  A quarter of the pairs
    share a valuation profile (y = coordinatewise unit multiple of x) so the
    absoluteness check exercises its equality branch."""
    triples = []
    for _ in range(count):
        x = random_vector(field, n, rng)
        if rng.random() < 0.25:
            y = Vector(field, tuple(
                c * random_scalar(field, rng, unit=True) for c in x.coords))
        else:
            y = random_vector(field, n, rng)
        triples.append((x, y, random_scalar(field, rng)))
    return triples


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


def grid_from_values(field: FieldSpec, n: int, values) -> list[Vector]:
    """The full product grid: every vector with coordinates drawn from
    `values`, in lexicographic order over the given value order.  Capped
    like a segment at DEFAULT_ENUM_CAP points."""
    EnumerationTooLargeError.check(len(values), n, DEFAULT_ENUM_CAP,
                                   f"{len(values)} values in {n} dimensions")
    scalars = [field.scalar(v) for v in values]
    return [Vector(field, combo) for combo in itertools.product(scalars, repeat=n)]


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
