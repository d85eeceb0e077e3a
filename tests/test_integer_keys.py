"""`verify_isometry` compares norms as exact keys; these tests hold it,
and `is_metrically_between`, to references built from `Fraction`s.

The references take each coordinate's absolute value with `naive.padic_abs`
or `naive.trivial_abs` and sum or maximise them as the definitions say.
The maps are seeded and cover padic:2, padic:3, padic:5, gf:5 and
trivial:q: isometries, maps with violations and collisions, coordinates
of equal absolute value whose sum p divides (a carry), and differences of
equal-valuation values that cancel to a smaller absolute value.
`verify_isometry` reads its keys one probe row at a time, so the maps
also take every value distinct, a constant coordinate, exponents spread
over +-1200, wsup weights with coprime denominators, collisions in the
first and the last row, and all of F_5^n; its traced memory is bounded.
"""

from __future__ import annotations

import itertools
import random
import tracemalloc
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


# -- the row kernel: classes of equal raw value, rows of integer keys ---------


def _distinct_values(field: FieldSpec, rng: random.Random, count: int,
                     spread: int = 2) -> list:
    """`count` distinct raw values in random order.  Over padic:p and trivial:q,
    0 and units times p**k with |k| <= spread, so many share |.|; over gf:q a
    sample of the residues."""
    if field.kind == "gf":
        return rng.sample(range(field.prime), count)
    p = field.prime if field.kind == "padic" else 7
    values = {Fraction(0)}
    while len(values) < count:
        unit = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 40), rng.randrange(1, 40))
        if unit.numerator % p and unit.denominator % p:
            values.add(unit * Fraction(p) ** rng.randint(-spread, spread))
    return rng.sample(sorted(values), count)


def _column_map(field: FieldSpec, columns: list[list], rng: random.Random) -> ProbeMap:
    """A random axial isometry on the distinct points whose coordinates are
    read across `columns`, in order."""
    points = list(dict.fromkeys(Vector.make(field, list(values)) for values in zip(*columns)))
    return ProbeMap.from_isometry(random_axial_isometry(field, len(columns), rng), points)


def _with_faults(m: ProbeMap, rng: random.Random) -> list[ProbeMap]:
    """m; m with three images rebuilt from other images' coordinates
    (violations); and m with a collision in the first row (image 0 again at
    position 5) and one in the last (the last image equal to the one before)."""
    rebuilt = list(m.images)
    for i in rng.sample(range(len(rebuilt)), 3):
        rebuilt[i] = Vector(m.field, tuple(rng.choice(m.images).coords[j] for j in range(m.dim)))
    collided = list(m.images)
    collided[5], collided[-1] = collided[0], collided[-2]
    return [m, ProbeMap(m.domain, tuple(rebuilt)), ProbeMap(m.domain, tuple(collided))]


def _check_against_the_reference(maps, weights=None) -> None:
    """Each map under one of one, sup and wsup in turn, the reference being
    slow: `test_verify_matches_the_fraction_reference` takes every pairing."""
    for k, m in enumerate(maps):
        spec = [NormSpec.one(), NormSpec.sup(), NormSpec.weighted_sup(
            weights or [Fraction(i + 1, 2) for i in range(m.dim)])][k % 3]
        assert verify_isometry(m, spec).to_json_dict() == _reference_report(m, spec), \
            (str(m.field), m.dim, str(spec))


@pytest.mark.parametrize("tag", ["padic:2", "padic:3", "padic:5", "gf:61", "trivial:q"])
def test_verify_matches_the_reference_when_every_value_is_distinct(tag):
    """Every class holds one point: each row reads one exponent per later point."""
    field = FieldSpec.parse(tag)
    rng = random.Random(tag)
    for n, size in ((1, 60), (3, 40), (8, 20)):
        m = _column_map(field, [_distinct_values(field, rng, size) for _ in range(n)], rng)
        assert len({x.coords[0].value for x in m.domain}) == size
        maps = _with_faults(m, rng)
        _check_against_the_reference(maps + maps[1:] + maps[2:])   # each fault under two norms
        report = verify_isometry(maps[2], NormSpec.one()).to_json_dict()
        assert report["collision_count"] == 2
        assert [c["x"] for c in report["collisions"]] == [str(m.domain[0]), str(m.domain[-2])]


@pytest.mark.parametrize("tag", FIELDS)
def test_a_constant_coordinate_is_one_class(tag):
    """A coordinate with one value on every probe (a new Scalar each time) adds 0
    to every key of its side, whether the other side's column varies or not."""
    field = FieldSpec.parse(tag)
    rng = random.Random(tag)
    pool = _pool(field)
    columns = [[rng.choice(pool) for _ in range(30)], [pool[1]] * 30,
               [rng.choice(pool) for _ in range(30)]]
    m = _column_map(field, columns, rng)
    assert len({x.coords[1].value for x in m.domain}) == 1 < len({id(x.coords[1]) for x in m.domain})
    flat = ProbeMap(m.domain, tuple(Vector(field, (y.coords[0],) * 3) for y in m.images))
    _check_against_the_reference(_with_faults(m, rng) + [flat, flat, flat])


@pytest.mark.parametrize("tag", ["padic:2", "padic:3", "padic:5"])
def test_keys_stay_exact_over_exponents_spread_across_2400(tag):
    """|k| up to 1200 in one row: the keys p**(e - lo) run to about p**2400, and
    a difference of equal |.| that cancels far below both stays exact."""
    field = FieldSpec.parse(tag)
    rng = random.Random(tag)
    columns = [_distinct_values(field, rng, 16, spread=1200) for _ in range(3)]
    a = columns[0][2] or columns[0][3]
    columns[0][4] = a + Fraction(field.prime) ** 1200 * a   # |a - b| = p**-1200 |a|
    m = _column_map(field, columns, rng)
    exps = {c._abs_exponent() for x in m.domain for c in x.coords} - {None}
    assert max(exps) - min(exps) > 2000
    _check_against_the_reference(_with_faults(m, rng))


@pytest.mark.parametrize("tag", ["padic:2", "padic:3", "padic:5", "trivial:q"])
def test_wsup_weights_with_coprime_denominators(tag):
    """The weights' common denominator is 3 * 2 * 7 * 5; under padic:3 the
    weight 1/3 at |.| = 3 ties the weight 1 at |.| = 1."""
    field = FieldSpec.parse(tag)
    rng = random.Random(tag)
    weights = [Fraction(1, 3), Fraction(1), Fraction(5, 2), Fraction(4, 7), Fraction(3, 5)]
    m = _column_map(field, [_distinct_values(field, rng, 30) for _ in range(5)], rng)
    spec = NormSpec.weighted_sup(weights)
    for x in _with_faults(m, rng):
        assert verify_isometry(x, spec).to_json_dict() == _reference_report(x, spec)


@pytest.mark.parametrize("n", [2, 3])
def test_complete_gf5_maps(n):
    """All of F_5^n, flagged complete: an axial isometry, the same with two
    images swapped, and a map with two images equal, which is not onto."""
    field = FieldSpec.parse("gf:5")
    rng = random.Random(n)
    points = tuple(Vector.make(field, list(v)) for v in itertools.product(range(5), repeat=n))
    m = ProbeMap.from_isometry(random_axial_isometry(field, n, rng), points, complete=True)
    swapped, collided = list(m.images), list(m.images)
    i, j = rng.sample(range(len(points)), 2)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    collided[i] = collided[j]
    maps = [m, ProbeMap(points, tuple(swapped), True), ProbeMap(points, tuple(collided), True)]
    _check_against_the_reference(maps)
    assert [verify_isometry(x, NormSpec.one()).surjective for x in maps] == [True, True, False]


def test_verify_keeps_memory_linear_in_the_probes():
    """200 probes with every value distinct: the traced peak of one check stays
    under 1 MiB (about 0.15 MiB), where a list of every pair's key on each
    side alone takes about 1.6 MiB."""
    field = FieldSpec.parse("padic:3")
    rng = random.Random(200)
    m = _column_map(field, [_distinct_values(field, rng, 200) for _ in range(3)], rng)
    verify_isometry(m, NormSpec.one())   # the kept exponents are filled
    tracemalloc.start()
    try:
        report = verify_isometry(m, NormSpec.one())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.pairs_checked == 200 * 199 // 2
    assert peak < 2 ** 20, peak
