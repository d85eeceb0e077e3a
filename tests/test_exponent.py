"""`fields._exponent` is the one home of |a - b| = p**e: `valuation`,
the norm keys and `TableMap`'s p-adic pass read their exponents from it.

The kernel is held to `naive.padic_abs` and `naive.trivial_abs` on seeded
raw values over padic:2/3/5, gf:5 and trivial:q, the p-adic ones also at
exponents in the thousands; the p-adic table pass is held to build no
`Scalar` per pair, and to name a metric break with the valuations it
always printed.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from naive import padic_abs, trivial_abs
from ultranorm import FieldSpec, InvalidInputError, TableMap, valuation
from ultranorm.fields import Scalar, _exponent

FIELDS = ["padic:2", "padic:3", "padic:5", "gf:5", "trivial:q"]


def _raw(field: FieldSpec, rng: random.Random):
    if field.kind == "gf":
        return rng.randrange(field.prime)
    p = field.prime or 7
    return Fraction(rng.randint(-30, 30) * p ** rng.randint(0, 3),
                    rng.randint(1, 12) * p ** rng.randint(0, 3))


def _deep(p: int, rng: random.Random, k: int) -> Fraction:
    """A unit of either sign times p**k, so |·| is exactly p**-k."""
    while True:
        num, den = rng.randint(1, 30), rng.randint(1, 12)
        if num % p and den % p:
            return Fraction(rng.choice([-1, 1]) * num, den) * Fraction(p) ** k


@pytest.mark.parametrize("tag", FIELDS)
def test_the_kernel_matches_the_naive_absolute_value(tag):
    field = FieldSpec.parse(tag)
    absval = (lambda x: padic_abs(x, field.prime)) if field.kind == "padic" else trivial_abs
    rng = random.Random(tag)
    pairs = []
    for _ in range(400):
        a, b = _raw(field, rng), _raw(field, rng)
        pairs.append((a, a) if rng.random() < 0.1 else (a, b))
    if field.kind == "padic":   # exponents in the thousands, |a| = |b| in about half the pairs
        for _ in range(12):
            k = rng.choice([-1, 1]) * rng.randint(1000, 4000)
            pairs.append((_deep(field.prime, rng, k),
                          _deep(field.prime, rng, k + rng.choice([0, 0, 0, 1, -2, 7]))))
    for a, b in pairs:
        e = _exponent(a, b, field._p)
        assert (e is None) == (a == b)
        expected = absval(a - b)
        assert (Fraction(0) if e is None else Fraction(field._p) ** e) == expected
        assert valuation(Scalar(field, a) - Scalar(field, b)) == expected


def test_a_padic_table_builds_without_scalar_arithmetic(monkeypatch):
    q3 = FieldSpec.padic(3)
    pairs = [(Fraction(i, 9), Fraction(i, 9) + Fraction(1, 3)) for i in range(60)]
    expected = TableMap.from_pairs(q3, pairs)

    def refuse(*args):
        raise AssertionError("Scalar arithmetic in the table's metric pass")
    for name in ("__add__", "__sub__"):
        monkeypatch.setattr(Scalar, name, refuse)
    assert TableMap.from_pairs(q3, pairs) == expected


def test_a_metric_break_is_named_with_its_valuations():
    q3 = FieldSpec.padic(3)
    with pytest.raises(InvalidInputError) as info:
        TableMap.from_pairs(q3, [(0, 0), (1, "1/3"), ("1/9", 9)])
    assert str(info.value) == "table not metric-preserving: |0-1|=1 but |0-1/3|=3"
