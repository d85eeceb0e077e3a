from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ultranorm import (
    AxialIsometry,
    DecompositionError,
    EnumerationTooLargeError,
    FieldSpec,
    NormSpec,
    ProbeMap,
    TableMap,
    UnderdeterminedError,
    axial_isometry_count,
    coordinate_between,
    decompose,
    enumerate_isometries,
    enumerate_space,
    exhaustive_betweenness_check,
)
import ultranorm.betweenness
import ultranorm.oracle
from ultranorm.oracle import _search

from naive import (gf_one_dist, gf_space, gf_sup_dist, is_axial, isometries_by_filter,
                   wreath_order)

ONE = NormSpec.one()
SUP = NormSpec.sup()


def test_count_formula_matches_naive():
    for q in (2, 3, 5):
        for n in (1, 2, 3):
            assert axial_isometry_count(q, n) == wreath_order(q, n)
            assert axial_isometry_count(q, n, centred=True) == wreath_order(q, n, True)


def test_known_one_norm_counts():
    assert enumerate_isometries(2, 2).count == 8
    assert enumerate_isometries(2, 2, centred=True).count == 2
    assert enumerate_isometries(3, 2).count == 72
    assert enumerate_isometries(3, 2, centred=True).count == 8
    assert enumerate_isometries(2, 3).count == 48
    assert enumerate_isometries(2, 3, centred=True).count == 6


def test_every_one_norm_isometry_is_axial():
    for q, n in ((2, 2), (3, 2), (2, 3)):
        result = enumerate_isometries(q, n)
        assert result.axial == result.count
        assert result.non_axial_witnesses == []
        assert result.formula_match


def test_sup_norm_finds_all_bijections():
    result = enumerate_isometries(2, 2, SUP)
    assert result.count == 24  # discrete metric: every bijection qualifies
    assert result.axial == 8
    assert not result.formula_match
    assert len(result.non_axial_witnesses) == 16


def test_enumeration_agrees_with_permutation_filter():
    # independent oracle: filter *all* bijections rather than backtrack
    for q, n, spec, dist in (
        (2, 2, ONE, gf_one_dist(2)),
        (2, 2, SUP, gf_sup_dist(2)),
        (2, 3, ONE, gf_one_dist(2)),
    ):
        expected = set(isometries_by_filter(gf_space(q, n), dist))
        result = enumerate_isometries(q, n, spec)
        assert set(result.isometries) == expected


def test_found_set_equals_generated_axial_set():
    # generate every (translation, sigma, tables) map over F_2^2 and compare
    # the induced point maps with the search output
    f2 = FieldSpec.gf(2)
    points = enumerate_space(f2, 2)
    index = {p: i for i, p in enumerate(points)}
    tables = [TableMap.from_residues(f2, list(img)) for img in itertools.permutations(range(2))]
    generated = set()
    for translation in points:
        for sigma in itertools.permutations(range(2)):
            for taus in itertools.product(tables, repeat=2):
                iso = AxialIsometry(sigma=sigma, taus=taus, translation=translation)
                generated.add(tuple(index[iso.apply(p)] for p in points))
    result = enumerate_isometries(2, 2)
    assert set(result.isometries) == generated


def test_enumeration_deterministic_with_pinned_attempts():
    first = enumerate_isometries(3, 2)
    again = enumerate_isometries(3, 2)
    assert first.isometries == again.isometries
    # search-node counts of the depth-first search in point order
    for (q, n, spec, centred), attempts in {
            (3, 2, ONE, False): 1629, (3, 2, ONE, True): 180,
            (2, 3, ONE, False): 928, (2, 3, ONE, True): 115,
            (2, 2, SUP, False): 64}.items():
        assert enumerate_isometries(q, n, spec, centred=centred).attempts == attempts


@pytest.mark.parametrize("q, n, spec, dist, centred", [
    (2, 2, ONE, gf_one_dist(2), False),
    (2, 2, SUP, gf_sup_dist(2), False),
    (2, 2, ONE, gf_one_dist(2), True),
    (2, 2, SUP, gf_sup_dist(2), True),
    (3, 1, ONE, gf_one_dist(3), False),
    (5, 1, ONE, gf_one_dist(5), False),
    (7, 1, ONE, gf_one_dist(7), False),
], ids=["F2^2-one", "F2^2-sup", "F2^2-one-centred", "F2^2-sup-centred", "F3^1", "F5^1",
        "F7^1"])
def test_search_order_matches_permutation_filter(q, n, spec, dist, centred):
    # the filter walks itertools.permutations, so its order is lexicographic
    expected = [p for p in isometries_by_filter(gf_space(q, n), dist)
                if not centred or p[0] == 0]
    assert enumerate_isometries(q, n, spec, centred=centred).isometries == tuple(expected)


def test_attempts_pinned_on_the_largest_spaces():
    # free candidates summed over every search node: what a pair-by-pair check tries
    assert enumerate_isometries(3, 3, cap=27).attempts == 286659
    assert enumerate_isometries(2, 4, cap=16).attempts == 31296


def test_import_does_not_load_process_pool():
    code = "import sys, ultranorm; print('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = ("import sys, ultranorm.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_space_cap_guard():
    with pytest.raises(EnumerationTooLargeError) as err:
        enumerate_isometries(5, 2)
    assert err.value.size == 25 and err.value.cap == 9
    # explicit cap widens the guard (still a tiny search when centred)
    result = enumerate_isometries(2, 2, cap=25)
    assert result.count == 8


def test_enumeration_explicit_cap():
    with pytest.raises(EnumerationTooLargeError) as err:
        enumerate_isometries(2, 2, cap=3)
    assert err.value.size == 4 and err.value.cap == 3


def test_ultrametric_norms_have_a_smaller_default_cap():
    # under sup all (q^n)! bijections are isometries: 9 points would be 9! maps
    for spec in (SUP, NormSpec.parse("wsup:1,2")):
        with pytest.raises(EnumerationTooLargeError) as err:
            enumerate_isometries(3, 2, spec)
        assert err.value.size == 9 and err.value.cap == 7
    with pytest.raises(EnumerationTooLargeError) as err:
        enumerate_isometries(2, 3, SUP)
    assert err.value.size == 8 and err.value.cap == 7
    with pytest.raises(EnumerationTooLargeError) as err:
        enumerate_isometries(2, 2, SUP, cap=3)  # an explicit cap still rules
    assert err.value.cap == 3
    assert enumerate_isometries(2, 2, SUP).count == 24


def test_betweenness_exhaustive_small():
    report = exhaustive_betweenness_check(2, 1)
    assert report.triples == 8 and report.ok
    report = exhaustive_betweenness_check(3, 2)
    assert report.triples == 729 and report.mismatches == 0
    report = exhaustive_betweenness_check(2, 3)
    assert report.triples == 512 and report.mismatches == 0
    payload = report.to_json_dict()
    assert payload == {"q": 2, "n": 3, "triples": 512, "mismatches": 0,
                       "ok": True, "witnesses": []}


def test_betweenness_triple_cap():
    with pytest.raises(EnumerationTooLargeError) as err:
        exhaustive_betweenness_check(5, 3, cap=10**5)
    assert err.value.size == 125**3


@pytest.mark.parametrize("q, n, expected", [(2, 2, 8), (3, 2, 72), (2, 3, 96), (5, 2, 800),
                                           (2, 4, 800)])
def test_betweenness_mismatches_are_counted_and_witnessed_in_triple_order(
        monkeypatch, q, n, expected):
    # Under the sup distance a coordinate mixture need not be metrically
    # between, so the check must report mismatches: the same count and the
    # same first ten (x, z, y) witnesses as a literal loop over naive pieces.
    sup = gf_sup_dist(q)

    def sup_distance(x, y, spec):
        return sup(tuple(c.value for c in x.coords), tuple(c.value for c in y.coords))

    monkeypatch.setattr(ultranorm.oracle, "distance", sup_distance)
    monkeypatch.setattr(ultranorm.betweenness, "distance", sup_distance)
    mismatches, witnesses = 0, []
    for x, z, y in itertools.product(gf_space(q, n), repeat=3):
        metric = sup(x, y) == sup(x, z) + sup(z, y)
        coordinate = all(c in (a, b) for a, c, b in zip(x, z, y))
        if metric != coordinate:
            mismatches += 1
            if len(witnesses) < 10:
                witnesses.append({"x": ",".join(map(str, x)), "z": ",".join(map(str, z)),
                                  "y": ",".join(map(str, y)), "metric": metric,
                                  "coordinate": coordinate})
    assert mismatches == expected
    assert exhaustive_betweenness_check(q, n).to_json_dict() == {
        "q": q, "n": n, "triples": q ** (3 * n), "mismatches": expected, "ok": False,
        "witnesses": witnesses}


@pytest.mark.parametrize("q, n, expected", [(2, 1, 2), (2, 3, 296), (3, 2, 504)])
def test_betweenness_coordinate_side_matches_coordinate_between_on_every_triple(
        monkeypatch, q, n, expected):
    # Under a zero distance every triple is metrically between, so the
    # mismatches are exactly the triples that `coordinate_between` refuses.
    monkeypatch.setattr(ultranorm.oracle, "distance", lambda x, y, spec: 0)
    mismatches, witnesses = 0, []
    for x, z, y in itertools.product(enumerate_space(FieldSpec.gf(q), n), repeat=3):
        if not coordinate_between(x, z, y):
            mismatches += 1
            if len(witnesses) < 10:
                witnesses.append({"x": str(x), "z": str(z), "y": str(y), "metric": True,
                                  "coordinate": False})
    assert mismatches == expected
    assert exhaustive_betweenness_check(q, n).to_json_dict() == {
        "q": q, "n": n, "triples": q ** (3 * n), "mismatches": expected, "ok": False,
        "witnesses": witnesses}


def test_betweenness_computes_each_distance_once(monkeypatch):
    calls = []
    real = ultranorm.oracle.distance

    def counted(x, y, spec):
        calls.append((x, y))
        return real(x, y, spec)

    monkeypatch.setattr(ultranorm.oracle, "distance", counted)
    report = exhaustive_betweenness_check(3, 2)
    assert report.triples == 729 and report.mismatches == 0
    assert len(calls) == 81 == len(set(calls))   # (q^n)^2: every ordered pair once


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # points 0..1099 on a line with |i - j|: fixing 0 leaves only the identity
    size = 1100
    found, attempts = _search([[abs(i - j) for j in range(size)] for i in range(size)], [0])
    assert found == [tuple(range(size))]
    assert attempts == (size - 1) * size // 2


COUNTED_SPACES = [
    *[(q, n, ONE, gf_one_dist(q), centred, None, wreath_order(q, n, centred))
      for q, n in ((2, 2), (3, 2), (2, 3)) for centred in (False, True)],
    (2, 4, ONE, gf_one_dist(2), False, 16, wreath_order(2, 4)),
    *[(q, n, SUP, gf_sup_dist(q), centred, None, math.factorial(q ** n - centred))
      for q, n in ((2, 1), (2, 2), (3, 1), (5, 1), (7, 1)) for centred in (False, True)],
]


@pytest.mark.parametrize("q, n, spec, dist, centred, cap, order", COUNTED_SPACES,
                         ids=[f"{spec}-F{q}^{n}{'-centred' * centred}"
                              for q, n, spec, _, centred, _, _ in COUNTED_SPACES])
def test_found_set_is_the_whole_isometry_group_by_its_count(q, n, spec, dist, centred, cap,
                                                            order):
    # distinct distance-preserving bijections, as many as Isom(X) has, are all of Isom(X)
    result = enumerate_isometries(q, n, spec, centred, cap)
    space = gf_space(q, n)
    assert [tuple(c.value for c in point.coords) for point in result.points] == space
    table = [[dist(x, y) for y in space] for x in space]
    assert result.count == order == len(set(result.isometries))
    for perm in result.isometries:
        assert sorted(perm) == list(range(q ** n))
        assert perm[0] == 0 or not centred
        assert all(table[perm[i]][perm[j]] == d for i, row in enumerate(table)
                   for j, d in enumerate(row))


def test_result_json_shape():
    result = enumerate_isometries(2, 2)
    payload = result.to_json_dict()
    assert payload == {"q": 2, "n": 2, "norm": "one", "centred": False,
                       "isometries": 8, "axial": 8, "formula": 8, "match": True,
                       "attempts": payload["attempts"], "non_axial": 0}
    assert "duration_s" not in result.to_json_dict()


@pytest.mark.parametrize("check", [lambda: enumerate_isometries(2, 2),
                                   lambda: exhaustive_betweenness_check(2, 2)],
                         ids=["EnumerationResult", "BetweennessReport"])
def test_reports_carry_no_clock(check):
    first, second = check(), check()
    assert not hasattr(first, "duration")
    assert "duration_s" not in first.to_json_dict()
    assert json.dumps(first.to_json_dict()) == json.dumps(second.to_json_dict())
    with pytest.raises(TypeError):
        first.to_json_dict(timing=True)


def _decomposes(m) -> bool:
    try:
        decompose(m)
    except (DecompositionError, UnderdeterminedError):
        return False
    return True


def _spaces(cap: int):
    return [(q, n) for q in (2, 3, 5, 7) for n in (1, 2, 3) if q ** n <= cap]


@pytest.mark.parametrize("kind", ["one", "sup", "wsup"])
def test_decompose_succeeds_exactly_on_the_naively_axial_found_maps(kind):
    from ultranorm.errors import DEFAULT_SPACE_CAP, DEFAULT_ULTRAMETRIC_SPACE_CAP

    verdicts = set()
    for q, n in _spaces(DEFAULT_SPACE_CAP if kind == "one" else DEFAULT_ULTRAMETRIC_SPACE_CAP):
        spec = NormSpec.weighted_sup(list(range(1, n + 1))) if kind == "wsup" else NormSpec(kind)
        result = enumerate_isometries(q, n, spec)
        for perm in result.isometries:
            axial = is_axial(perm, q, n)
            assert _decomposes(result.probe_map(perm)) == axial, (q, n, perm)
            verdicts.add(axial)
    # every taxicab isometry is axial; the sup-type norms have non-axial ones on F_2^2
    assert verdicts == ({True} if kind == "one" else {True, False})


def test_decompose_succeeds_exactly_on_naively_axial_random_bijections():
    import random

    rng = random.Random(2021)
    verdicts = set()
    for q, n in _spaces(9):
        points = tuple(enumerate_space(FieldSpec.gf(q), n))
        for _ in range(60):
            perm = rng.sample(range(len(points)), len(points))
            m = ProbeMap(points, tuple(points[i] for i in perm), complete=True)
            axial = is_axial(perm, q, n)
            assert _decomposes(m) == axial, (q, n, perm)
            verdicts.add(axial)
    assert verdicts == {True, False}
