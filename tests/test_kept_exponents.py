"""Each scalar keeps e with |a| = p**e, and the norm keys read it.

Where the kept exponents of two coordinates differ, |a - b| is the larger
|.| (the isosceles property); only coordinates of equal |.| go through
`fields._exponent`.  `distance` and `norm` are held to `naive.padic_abs`
and `naive.trivial_abs` on seeded vectors that mix both cases, zeros and
scalars shared by both operands.  `is_metrically_between` answers True
with no exponent read for a z made of its endpoints' own scalars, and
otherwise compares the three one-norm keys as integers; it is held to the
`Fraction` sum of the three distances.  The kernel strips p by repeated
squaring, so exponents in the thousands come out exact and fast.
"""

from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction

import pytest

import ultranorm.betweenness
from naive import one_norm, padic_abs, sup_norm, trivial_abs
from ultranorm import (FieldSpec, NormSpec, Vector, distance, is_metrically_between, norm,
                       segment)
from ultranorm.fields import Scalar, _exponent

FIELDS = ["padic:2", "padic:3", "padic:5", "gf:5", "trivial:q"]
ONE, SUP = NormSpec.one(), NormSpec.sup()


def _absval(field: FieldSpec):
    return (lambda x: padic_abs(x, field.prime)) if field.kind == "padic" else trivial_abs


def _unit(p: int, rng: random.Random) -> Fraction:
    """u/w with p dividing neither: |u/w| = 1."""
    units = [u for u in range(1, 13) if u % p]
    return Fraction(rng.choice(units) * rng.choice((-1, 1)), rng.choice(units))


def _value(field: FieldSpec, rng: random.Random, far: bool = False):
    """A raw value: zero one time in five, else a unit times p**k, k in [-2, 2],
    so two draws often share their |.|; |k| in [1000, 1200] when far."""
    if field.kind == "gf":
        return rng.randrange(field.prime)
    if rng.random() < 0.2:
        return Fraction(0)
    p = field.prime or 7
    k = rng.choice((-1, 1)) * rng.randint(1000, 1200) if far else rng.randint(-2, 2)
    return _unit(p, rng) * Fraction(p) ** k


def _pair(field: FieldSpec, n: int, rng: random.Random,
          far: bool = False) -> tuple[Vector, Vector]:
    """x and y; some of y's coordinates are x's own Scalar objects, some equal
    values in new objects, some x's value times a unit (equal |.|)."""
    xs = [Scalar(field, _value(field, rng, far)) for _ in range(n)]
    ys = []
    for a in xs:
        roll = rng.random()
        if roll < 0.15:
            ys.append(a)
        elif roll < 0.25:
            ys.append(Scalar(field, a.value))
        elif roll < 0.5 and field.kind == "padic":
            ys.append(Scalar(field, a.value * _unit(field.prime, rng)))
        else:
            ys.append(Scalar(field, _value(field, rng, far)))
    return Vector(field, tuple(xs)), Vector(field, tuple(ys))


@pytest.mark.parametrize("tag", FIELDS)
def test_distance_and_norm_match_the_naive_absolute_value(tag):
    field = FieldSpec.parse(tag)
    absval = _absval(field)
    rng = random.Random(tag)
    unequal = equal = 0   # differing coordinates by whether their |.| differ
    for _ in range(300):
        x, y = _pair(field, rng.randint(1, 5), rng)
        diffs = [a.value - b.value for a, b in zip(x.coords, y.coords)]
        for a, b in zip(x.coords, y.coords):
            if a.value != b.value:
                if absval(a.value) != absval(b.value):
                    unequal += 1
                else:
                    equal += 1
        for _ in range(2):   # the first pass fills the kept exponents, the second reads them
            assert distance(x, y, ONE) == one_norm(diffs, absval)
            assert distance(x, y, SUP) == sup_norm(diffs, absval)
            assert distance(y, x, ONE) == distance(x, y, ONE)
            for v in (x, y):
                values = [c.value for c in v.coords]
                assert norm(v, ONE) == one_norm(values, absval)
                assert norm(v, SUP) == sup_norm(values, absval)
    assert equal > 100 and unequal > 100


@pytest.mark.parametrize("tag", FIELDS)
def test_a_kept_exponent_is_invisible(tag):
    field = FieldSpec.parse(tag)
    rng = random.Random(tag)
    for _ in range(100):
        value = _value(field, rng)
        kept, fresh = Scalar(field, value), Scalar(field, value)
        e = kept._abs_exponent()
        assert e == _exponent(value, 0, field._p) and kept._abs_exponent() is e
        assert kept._e is e and not hasattr(fresh, "_e")
        assert kept == fresh and hash(kept) == hash(fresh)
        assert repr(kept) == repr(fresh) and str(kept) == str(fresh)
        assert pickle.dumps(kept) == pickle.dumps(fresh)
        for back in (pickle.loads(pickle.dumps(kept)), copy.copy(kept), copy.deepcopy(kept)):
            assert back == fresh and hash(back) == hash(fresh)
            assert back._abs_exponent() == e


@pytest.mark.parametrize("tag", FIELDS)
def test_metric_betweenness_matches_the_fraction_sum(tag):
    field = FieldSpec.parse(tag)
    rng = random.Random("between " + tag)
    seen = set()
    for _ in range(300):
        x, y = _pair(field, rng.randint(1, 4), rng)
        if rng.random() < 0.5:   # on the segment
            z = Vector(field, tuple(rng.choice(pair) for pair in zip(x.coords, y.coords)))
        else:
            z = _pair(field, x.dim, rng)[0]
        answer = is_metrically_between(x, z, y)
        assert type(answer) is bool
        assert answer == (distance(x, y, ONE) == distance(x, z, ONE) + distance(y, z, ONE))
        seen.add(answer)
    assert seen == {True, False}


@pytest.mark.parametrize("tag", FIELDS + ["gf:2"])
def test_betweenness_by_identity_matches_the_distance_sum(tag):
    """z's coordinates are x's or y's own scalars (no exponent read), equal
    values in fresh scalars, or other values; x = y in distinct objects; and
    exponents far from 0, so the common lo is too."""
    field = FieldSpec.parse(tag)
    rng = random.Random("identity " + tag)
    seen = {}
    for _ in range(80):
        far = rng.random() < 0.25
        x, y = _pair(field, rng.randint(1, 4), rng, far)
        if rng.random() < 0.2:   # x = y by value, no scalar shared
            y = Vector.make(field, [c.value for c in x.coords])
        own = Vector(field, tuple(rng.choice(pair) for pair in zip(x.coords, y.coords)))
        zs = {
            "own": own,
            "fresh": Vector.make(field, [c.value for c in own.coords]),
            "off": _pair(field, x.dim, rng, far)[0],
            "mixed": Vector(field, tuple(
                rng.choice((c, Scalar(field, c.value), Scalar(field, _value(field, rng, far))))
                for c in own.coords)),
        }
        for case, z in zs.items():
            answer = is_metrically_between(x, z, y)
            assert answer == (distance(x, y, ONE) == distance(x, z, ONE) + distance(z, y, ONE))
            seen.setdefault(case, set()).add(answer)
    assert seen["own"] == seen["fresh"] == {True}
    assert seen["off"] == seen["mixed"] == {True, False}


@pytest.mark.parametrize("tag", ["padic:3", "gf:5"])
def test_a_segment_point_is_between_with_no_exponent_read(tag, monkeypatch):
    """Every point `segment` lists is made of its endpoints' own scalars, so
    the check reads no exponent; one fresh scalar of equal value sends it
    through the keys, which answer the same."""
    field = FieldSpec.parse(tag)
    rng = random.Random("segment " + tag)
    pairs = [_pair(field, rng.randint(1, 4), rng) for _ in range(40)]

    def unread(self):
        raise AssertionError("a kept exponent was read")
    monkeypatch.setattr(Scalar, "_abs_exponent", unread)
    triples = [(x, z, y) for x, y in pairs for z in segment(x, y).points]
    assert all(is_metrically_between(x, z, y) for x, z, y in triples)
    monkeypatch.undo()
    for x, z, y in triples:
        coords = list(z.coords)
        i = rng.randrange(len(coords))
        coords[i] = Scalar(field, coords[i].value)
        assert is_metrically_between(x, Vector(field, tuple(coords)), y)


def test_betweenness_makes_no_distance_call(monkeypatch):
    """The benchmark's tracer counts `spaces.distance` calls through this name,
    which `minimize_two_point` still calls."""
    assert ultranorm.betweenness.distance is distance
    calls = []

    def counted(*args):
        calls.append(args)
        return distance(*args)
    monkeypatch.setattr(ultranorm.betweenness, "distance", counted)
    field = FieldSpec.padic(3)
    x, y = Vector.make(field, [0, 1]), Vector.make(field, [3, "1/3"])
    for z in (x, y, Vector.make(field, [0, "1/3"]), Vector.make(field, [9, 9])):
        is_metrically_between(x, z, y)
    assert calls == []


@pytest.mark.parametrize("value, p, e", [
    (Fraction(3 * 2 ** 28500), 2, -28500),
    (Fraction(5 ** 5000, 3), 5, -5000),
    (Fraction(7, 3 ** 6000), 3, 6000),
], ids=["2^28500", "5^5000/3", "3^-6000"])
def test_an_exponent_in_the_thousands_is_exact(value, p, e):
    field = FieldSpec.padic(p)
    assert _exponent(value, 0, p) == e
    assert _exponent(value + 1, 1, p) == e           # one a difference
    assert _exponent(value, value * (1 + p), p) == e - 1   # |v - v (1 + p)| = |v p|
    assert _exponent(value * p ** 8, 0, p) == e - 8   # the strip's short loop just full
    assert Scalar(field, value)._abs_exponent() == e
    x, y = Vector.make(field, [value, 1]), Vector.make(field, [0, 1 + p])
    assert distance(x, y, ONE) == Fraction(p) ** e + Fraction(1, p)
