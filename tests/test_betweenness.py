from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from ultranorm import (
    EnumerationTooLargeError,
    FieldSpec,
    NormSpec,
    Vector,
    coordinate_between,
    differing_positions,
    distance,
    enumerate_space,
    is_metrically_between,
    minimize_two_point,
    segment,
    uniqueness_check,
)
from ultranorm.sampling import random_vector

from naive import gf_one_dist, gf_space, gf_sup_dist, metric_between, segment_by_filter

Q3 = FieldSpec.parse("padic:3")
F2 = FieldSpec.parse("gf:2")
F3 = FieldSpec.parse("gf:3")

ONE = NormSpec.one()
SUP = NormSpec.sup()


def _v(field, text):
    return Vector.parse(field, text)


def test_metric_betweenness_known_triples():
    x, y = _v(Q3, "1,0"), _v(Q3, "0,1")
    assert is_metrically_between(x, _v(Q3, "0,0"), y)
    assert is_metrically_between(x, _v(Q3, "1,1"), y)
    assert not is_metrically_between(x, _v(Q3, "2,2"), y)
    assert is_metrically_between(x, x, y)
    assert is_metrically_between(x, y, y)


def test_coordinate_betweenness_known_triples():
    x, y = _v(Q3, "1,0"), _v(Q3, "0,1")
    assert coordinate_between(x, x, y)
    assert coordinate_between(x, _v(Q3, "1,1"), y)
    f5 = FieldSpec.parse("gf:5")
    assert not coordinate_between(
        _v(f5, "0,0,0"), _v(f5, "0,1,2"), _v(f5, "1,1,1"))


def test_equivalence_exhaustive_small_spaces():
    # every triple of F_2^2 and F_3^2: the metric equation is exactly the
    # coordinate condition
    for field, q in ((F2, 2), (F3, 3)):
        points = enumerate_space(field, 2)
        for x, z, y in itertools.product(points, repeat=3):
            assert is_metrically_between(x, z, y) == coordinate_between(x, z, y)


def test_equivalence_random_padic():
    rng = random.Random(21)
    for _ in range(500):
        n = rng.randint(1, 4)
        x = random_vector(Q3, n, rng)
        y = random_vector(Q3, n, rng)
        # mixtures of endpoint coordinates must satisfy the metric equality
        z = Vector(Q3, tuple(
            (x if rng.random() < 0.5 else y).coords[i] for i in range(n)))
        assert coordinate_between(x, z, y)
        assert is_metrically_between(x, z, y)
        # independent perturbations almost surely break it; verify agreement
        w = random_vector(Q3, n, rng)
        assert is_metrically_between(x, w, y) == coordinate_between(x, w, y)


def test_betweenness_translation_invariant_and_symmetric():
    rng = random.Random(22)
    for _ in range(200):
        x, z, y, t = (random_vector(Q3, 3, rng) for _ in range(4))
        m = is_metrically_between(x, z, y)
        assert m == is_metrically_between(x + t, z + t, y + t)
        assert m == is_metrically_between(y, z, x)
        c = coordinate_between(x, z, y)
        assert c == coordinate_between(x + t, z + t, y + t)
        assert c == coordinate_between(y, z, x)


def test_segment_spec_examples():
    x, y = _v(Q3, "1,0"), _v(Q3, "0,1")
    seg = segment(x, y)
    raw = {tuple(str(c) for c in p.coords) for p in seg.points}
    assert raw == {("1", "0"), ("0", "1"), ("0", "0"), ("1", "1")}
    assert seg.k == 2
    same = segment(x, x)
    assert same.k == 0 and [p for p in same.points] == [x]


def test_segment_cardinality_and_membership():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(1, 6)
        x = random_vector(Q3, n, rng)
        y = random_vector(Q3, n, rng)
        seg = segment(x, y)
        k = len(differing_positions(x, y))
        assert seg.k == k
        assert len(seg.points) == 2**k
        assert len(set(seg.points)) == 2**k
        for z in seg.points:
            assert is_metrically_between(x, z, y)


def test_segment_matches_whole_space_filter():
    # oracle: filter every point of the space against the metric equation
    dist = gf_one_dist(3)
    space = gf_space(3, 2)
    points = enumerate_space(F3, 2)
    by_index = {tuple(c.value for c in p.coords): p for p in points}
    for xs, ys in itertools.product(space, repeat=2):
        expected = {z for z in space if metric_between(xs, z, ys, dist)}
        got = segment(by_index[xs], by_index[ys]).points
        assert {tuple(c.value for c in p.coords) for p in got} == expected


def test_segment_cap():
    x = Vector.zero(Q3, 20)
    y = Vector.make(Q3, [1] * 20)
    with pytest.raises(EnumerationTooLargeError) as err:
        segment(x, y, cap=2**10)
    assert err.value.size == 2**20 and err.value.cap == 2**10
    assert "k=20" in str(err.value)


def test_minimize_spec_examples():
    a, c = _v(Q3, "0,0"), _v(Q3, "9,1/3")
    minimum, seg = minimize_two_point(a, c)
    assert minimum == Fraction(28, 9)
    assert len(seg.points) == 4
    minimum, seg = minimize_two_point(_v(Q3, "0,0"), _v(Q3, "1,0"))
    assert minimum == 1
    raw = {tuple(str(x) for x in p.coords) for p in seg.points}
    assert raw == {("0", "0"), ("1", "0")}
    minimum, seg = minimize_two_point(a, a)
    assert minimum == 0 and len(seg.points) == 1


def test_minimize_witnesses_attain_the_minimum():
    rng = random.Random(24)
    for _ in range(100):
        a = random_vector(Q3, 3, rng)
        c = random_vector(Q3, 3, rng)
        minimum, seg = minimize_two_point(a, c)
        assert minimum == distance(a, c, ONE)
        for b in seg.points:
            assert distance(c, b, ONE) + distance(b, a, ONE) == minimum


def test_uniqueness_check_spec_examples():
    a, c = _v(Q3, "0,0"), _v(Q3, "9,1/3")
    witnesses = uniqueness_check(a, c, Fraction(3), Fraction(1, 9))
    assert [tuple(str(x) for x in w.coords) for w in witnesses] == [("9", "0")]
    # equal coordinate valuations defeat uniqueness
    two = uniqueness_check(_v(Q3, "0,0"), _v(Q3, "1,1"), Fraction(1), Fraction(1))
    raw = {tuple(str(x) for x in w.coords) for w in two}
    assert raw == {("1", "0"), ("0", "1")}
    # d1 = 0 pins the witness at c
    at_c = uniqueness_check(a, c, Fraction(0), Fraction(28, 9))
    assert at_c == [c]
    with pytest.raises(ValueError):
        uniqueness_check(a, c, Fraction(1), Fraction(1))


def test_sup_coordinate_characterization_fails():
    # Under the sup norm the coordinate condition no longer describes the
    # metric relation.  Over F_2^2 the sup distance is discrete, so a
    # coordinate-mixture of distinct endpoints is *not* metrically between:
    dist = gf_sup_dist(2)
    space = gf_space(2, 2)
    coord_true_metric_false = [
        (x, z, y)
        for x, z, y in itertools.product(space, repeat=3)
        if all(z[i] in (x[i], y[i]) for i in range(2))
        and not metric_between(x, z, y, dist)
    ]
    assert ((0, 0), (1, 0), (1, 1)) in coord_true_metric_false
    # The reverse mismatch cannot exist for an ultrametric distance: the
    # additive equation forces z to coincide with an endpoint, and endpoints
    # always satisfy the coordinate condition.  Assert that emptiness.
    metric_true_coord_false = [
        (x, z, y)
        for x, z, y in itertools.product(space, repeat=3)
        if metric_between(x, z, y, dist)
        and not all(z[i] in (x[i], y[i]) for i in range(2))
    ]
    assert metric_true_coord_false == []


def test_sup_metric_betweenness_is_degenerate_for_padic():
    rng = random.Random(25)
    for _ in range(200):
        x = random_vector(Q3, 2, rng)
        y = random_vector(Q3, 2, rng)
        z = random_vector(Q3, 2, rng)
        additive = distance(x, y, SUP) == distance(x, z, SUP) + distance(z, y, SUP)
        if additive:
            assert z == x or z == y
