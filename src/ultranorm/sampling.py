"""The CLI's draws: the seeded samples of `check-axioms` and the value grid
of `counterexample --values`.

The samples are driven by a caller-supplied random.Random (reproducible);
the grid is fully deterministic.  p-adic scalars are produced as
unit * p**e so their valuations actually spread across the value group.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .errors import DEFAULT_ENUM_CAP, EnumerationTooLargeError, InvalidInputError, require_type
from .fields import GF, PADIC, FieldSpec, Scalar
from .spaces import Vector


def random_scalar(field: FieldSpec, rng: random.Random, unit: bool = False) -> Scalar:
    """A random field element, zero about one time in eight over the
    rationals; `unit` forces valuation 1 (rational fields: numerator and
    denominator coprime to p).  Other p-adic values carry a factor p**e with
    e drawn from -3..3."""
    require_type("field", field, FieldSpec)
    if not isinstance(rng, random.Random):   # a subclass draws as well
        raise InvalidInputError(f"rng must be a random.Random, got {type(rng).__name__}")
    if field.kind == GF:
        return Scalar(field, rng.randrange(1 if unit else 0, field.prime))
    if not unit and rng.random() < 0.125:
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
    require_type("field", field, FieldSpec)
    require_type("dimension", n, int)
    return Vector(field, tuple(random_scalar(field, rng) for _ in range(n)))


def norm_axiom_samples(field: FieldSpec, n: int, count: int,
                       rng: random.Random) -> list[tuple[Vector, Vector, Scalar]]:
    """(x, y, lam) triples for norm-axiom sweeps.  A quarter of the pairs
    share a valuation profile (y = coordinatewise unit multiple of x) so the
    absoluteness check exercises its equality branch."""
    require_type("field", field, FieldSpec)
    require_type("sample count", count, int)
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


def grid_from_values(field: FieldSpec, n: int, values) -> list[Vector]:
    """The full product grid: every vector with coordinates drawn from
    `values`, in lexicographic order over the given value order.  Capped
    like a segment at DEFAULT_ENUM_CAP points."""
    require_type("field", field, FieldSpec)
    require_type("grid values", values, list, tuple)
    EnumerationTooLargeError.check(len(values), n, DEFAULT_ENUM_CAP,
                                   f"{len(values)} values in {n} dimensions")
    scalars = [field.scalar(v) for v in values]
    return [Vector(field, combo) for combo in itertools.product(scalars, repeat=n)]
