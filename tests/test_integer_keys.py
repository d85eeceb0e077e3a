"""`verify_isometry` compares norms as exact keys; these tests hold it,
and `is_metrically_between`, to references built from `Fraction`s.

The references take each coordinate's absolute value with `naive.padic_abs`
or `naive.trivial_abs` and sum or maximise them as the definitions say.
The maps are seeded and cover padic:2, padic:3, padic:5, gf:5 and
trivial:q: isometries, maps with violations and collisions, coordinates
of equal absolute value whose sum p divides (a carry), and differences of
equal-valuation values that cancel to a smaller absolute value.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

import ultranorm.isometry
from ultranorm import (
    DimensionMismatchError,
    FieldSpec,
    NormSpec,
    ProbeMap,
    Vector,
    is_metrically_between,
    verify_isometry,
)
from ultranorm.errors import WITNESS_LIMIT

from gen import random_axial_isometry
from naive import metric_between, one_norm, padic_abs, sup_norm, trivial_abs, weighted_sup_norm

FIELDS = ["padic:2", "padic:3", "padic:5", "gf:5", "trivial:q"]


def _absval(field: FieldSpec):
    if field.kind == "padic":
        return lambda a: padic_abs(a, field.prime)
    return trivial_abs


def _reference_distance(field: FieldSpec, spec: NormSpec):
    absval = _absval(field)

    def dist(x: Vector, y: Vector) -> Fraction:
        diffs = [a.value - b.value for a, b in zip(x.coords, y.coords)]
        if spec.kind == "one":
            return one_norm(diffs, absval)
        if spec.kind == "sup":
            return sup_norm(diffs, absval)
        return weighted_sup_norm(diffs, absval, spec.weights)
    return dist


def _reference_report(m: ProbeMap, spec: NormSpec) -> dict:
    """`IsometryReport.to_json_dict()` computed pair by pair from Fractions."""
    dist = _reference_distance(m.field, spec)
    violations, collisions = [], []
    for (x, fx), (y, fy) in itertools.combinations(zip(m.domain, m.images), 2):
        d_dom, d_img = dist(x, y), dist(fx, fy)
        if d_dom != d_img:
            violations.append({"x": str(x), "y": str(y),
                               "domain_distance": str(d_dom), "image_distance": str(d_img)})
        if [c.value for c in fx.coords] == [c.value for c in fy.coords]:
            collisions.append({"x": str(x), "y": str(y), "image": str(fx)})
    surjective = not collisions if m.complete else None
    return {
        "norm": str(spec),
        "probes": len(m.domain),
        "pairs_checked": len(m.domain) * (len(m.domain) - 1) // 2,
        "ok": not violations and not collisions and surjective is not False,
        "injective": not collisions,
        "surjective": surjective,
        "violations": violations[:WITNESS_LIMIT],
        "collisions": collisions[:WITNESS_LIMIT],
        "violation_count": len(violations),
        "collision_count": len(collisions),
    }


def _pool(field: FieldSpec) -> list[Fraction]:
    """Values with repeated absolute values: sums of them carry, and
    differences such as (1 + p**k) - 1 cancel to p**k."""
    if field.kind == "gf":
        return list(range(field.prime))
    p = field.prime if field.kind == "padic" else 7
    return [Fraction(v) for v in (0, 1, -1, 2, 1 + p, 1 + p * p, p, 2 * p, p + p * p)] + [
        Fraction(1, p), Fraction(2, p), Fraction(1 + p, p * p), Fraction(p - 1, p)]


def _maps(tag: str, seed: int):
    field = FieldSpec.parse(tag)
    rng = random.Random(seed)
    pool = _pool(field)
    maps = []
    for n in (1, 2, 3):
        points = list(dict.fromkeys(
            Vector.make(field, [rng.choice(pool) for _ in range(n)]) for _ in range(14)))
        iso = random_axial_isometry(field, n, rng)
        maps.append(ProbeMap.from_isometry(iso, points))   # preserves the one-norm
        images = [iso.apply(x) for x in points]
        for i in rng.sample(range(len(images)), 3):   # some violations
            images[i] = Vector.make(field, [rng.choice(pool) for _ in range(n)])
        maps.append(ProbeMap(tuple(points), tuple(images)))
        maps.append(ProbeMap(tuple(points), tuple(   # many violations and collisions
            Vector.make(field, [rng.choice(pool[:3]) for _ in range(n)]) for _ in points)))
    return maps


def _specs(n: int) -> list[NormSpec]:
    return [NormSpec.one(), NormSpec.sup(),
            NormSpec.weighted_sup([Fraction(k + 1, 2) for k in range(n)])]


@pytest.mark.parametrize("tag", FIELDS)
@pytest.mark.parametrize("seed", [1, 2])
def test_verify_matches_the_fraction_reference(tag, seed):
    kinds = set()
    for m in _maps(tag, seed):
        for spec in _specs(m.dim):
            report = verify_isometry(m, spec).to_json_dict()
            assert report == _reference_report(m, spec)
            kinds.add((report["violation_count"] > 0, report["collision_count"] > 0))
    assert kinds == {(False, False), (True, False), (True, True)}


@pytest.mark.parametrize("tag", FIELDS)
def test_verify_matches_the_reference_on_product_grids(tag):
    """Over gf:5 the grid is all of F_5^2 and the map is flagged complete."""
    field = FieldSpec.parse(tag)
    complete = field.kind == "gf"
    values = _pool(field) if complete else _pool(field)[:3]
    points = [Vector.make(field, v) for v in itertools.product(values, repeat=2)]
    shuffled = random.Random(3).sample(points, len(points))
    for images in (points, shuffled, [points[0]] * len(points)):
        m = ProbeMap(tuple(points), tuple(images), complete)
        for spec in _specs(2):
            assert verify_isometry(m, spec).to_json_dict() == _reference_report(m, spec)


def test_a_carry_is_one_distance():
    """||(1,1,1)||_1 = 3 = |1/3|_3: three equal terms whose total p divides."""
    q3 = FieldSpec.parse("padic:3")
    origin, ones, third = (Vector.make(q3, v) for v in ([0, 0, 0], [1, 1, 1], ["1/3", 0, 0]))
    report = verify_isometry(ProbeMap((origin, ones), (origin, third)), NormSpec.one())
    assert report.ok and report.violation_count == 0
    report = verify_isometry(ProbeMap((origin, ones), (origin, ones.scale(q3.scalar(3)))),
                             NormSpec.one())
    assert report.violation_count == 1
    assert report.to_json_dict()["violations"][0]["image_distance"] == "1"


def test_equal_valuations_cancel_to_a_smaller_distance():
    """|1 - (1 + 5**2)|_5 = 1/25, though |1|_5 = |1 + 25|_5 = 1."""
    q5 = FieldSpec.parse("padic:5")
    a, b, c = (Vector.make(q5, [v]) for v in (1, 26, 2))
    report = verify_isometry(ProbeMap((a, b), (a, c)), NormSpec.one())
    assert report.to_json_dict()["violations"] == [
        {"x": "1", "y": "26", "domain_distance": "1/25", "image_distance": "1"}]


@pytest.mark.parametrize("tag", FIELDS)
def test_betweenness_matches_the_literal_metric_equation(tag):
    field = FieldSpec.parse(tag)
    dist = _reference_distance(field, NormSpec.one())
    rng = random.Random(7)
    pool = _pool(field)
    outcomes = set()
    for n in (1, 2, 3, 4):
        for _ in range(150):
            x, y, z = (Vector.make(field, [rng.choice(pool) for _ in range(n)])
                       for _ in range(3))
            if rng.random() < 0.3:   # z on the segment, sharing the endpoints' scalars
                z = Vector(field, tuple(rng.choice(pair) for pair in zip(x.coords, y.coords)))
            expected = metric_between(x, z, y, dist)
            assert is_metrically_between(x, z, y) is expected
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_a_one_probe_wsup_map_with_the_wrong_weight_count_is_ok():
    v = Vector.make(FieldSpec.parse("padic:3"), [1, 2, 3])
    wsup = NormSpec.weighted_sup([1, 2])
    report = verify_isometry(ProbeMap((v,), (v,)), wsup)
    assert report.ok and report.pairs_checked == 0
    w = Vector.make(FieldSpec.parse("padic:3"), [1, 2, 4])
    with pytest.raises(DimensionMismatchError, match="2 weights for dimension 3"):
        verify_isometry(ProbeMap((v, w), (v, w)), wsup)


def _affine_map_on_48_points() -> ProbeMap:
    q3 = FieldSpec.parse("padic:3")
    axes = [[0, 1, "1/3", 4], [0, 2, 3, "2/9"], [0, 5, "1/9"]]
    points = [Vector.make(q3, v) for v in itertools.product(*axes)]
    return ProbeMap.from_isometry(random_axial_isometry(q3, 3, random.Random(11)), points)


@pytest.mark.parametrize("spec", [NormSpec.one(), NormSpec.sup()], ids=str)
def test_verify_builds_no_distance_without_a_violation(monkeypatch, spec):
    def refuse(*args):
        raise AssertionError("distance called")
    monkeypatch.setattr(ultranorm.isometry, "distance", refuse)
    m = _affine_map_on_48_points()
    assert len(m.domain) == 48
    report = verify_isometry(m, spec)
    assert report.ok and report.pairs_checked == 48 * 47 // 2


def test_verify_leaves_the_operand_checks_to_the_probe_map(monkeypatch):
    m = _affine_map_on_48_points()

    def refuse(*args):
        raise AssertionError("Vector._check called")
    monkeypatch.setattr(Vector, "_check", refuse)
    report = verify_isometry(m, NormSpec.one())
    assert report.ok and report.pairs_checked == 48 * 47 // 2


def test_verify_builds_distances_for_the_kept_witnesses_only(monkeypatch):
    calls = []
    real = ultranorm.isometry.distance

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(ultranorm.isometry, "distance", counted)
    m = _affine_map_on_48_points()
    constant = ProbeMap(m.domain, (m.images[0],) * len(m.domain))
    report = verify_isometry(constant, NormSpec.one())
    assert report.violation_count == 48 * 47 // 2 > WITNESS_LIMIT
    assert len(calls) == 2 * WITNESS_LIMIT
