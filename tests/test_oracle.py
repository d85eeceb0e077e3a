from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ultranorm import (
    AxialIsometry,
    EnumerationTooLargeError,
    FieldSpec,
    NormSpec,
    TableMap,
    Vector,
    axial_isometry_count,
    enumerate_isometries,
    enumerate_space,
    exhaustive_betweenness_check,
    group_closure_check,
)
from ultranorm.oracle import EnumerationResult

from naive import gf_one_dist, gf_space, gf_sup_dist, isometries_by_filter, wreath_order

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


def test_import_does_not_load_process_pool():
    code = "import sys, ultranorm; print('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


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


def test_betweenness_exhaustive_small():
    report = exhaustive_betweenness_check(2, 1)
    assert report.triples == 8 and report.ok
    report = exhaustive_betweenness_check(3, 2)
    assert report.triples == 729 and report.mismatches == 0
    report = exhaustive_betweenness_check(2, 3)
    assert report.triples == 512 and report.mismatches == 0
    payload = report.to_json_dict(timing=False)
    assert payload == {"q": 2, "n": 3, "triples": 512, "mismatches": 0,
                       "ok": True, "witnesses": []}


def test_betweenness_triple_cap():
    with pytest.raises(EnumerationTooLargeError) as err:
        exhaustive_betweenness_check(5, 3, cap=10**5)
    assert err.value.size == 125**3


def test_group_closure_of_enumerated_sets():
    for q, n in ((2, 2), (3, 2)):
        report = group_closure_check(enumerate_isometries(q, n))
        assert report.ok
        assert report.has_identity and report.closed and report.inverses_ok
    # sup-norm bijection group (S_4) is a group too
    report = group_closure_check(enumerate_isometries(2, 2, SUP))
    assert report.ok and report.size == 24


def test_group_closure_singleton_identity():
    f2 = FieldSpec.gf(2)
    points = tuple(enumerate_space(f2, 2))
    result = EnumerationResult(
        q=2, n=2, norm=ONE, centred=False, points=points,
        isometries=(tuple(range(4)),), attempts=1, axial=1)
    report = group_closure_check(result)
    assert report.ok and report.size == 1


def test_group_closure_detects_missing_elements():
    f2 = FieldSpec.gf(2)
    points = tuple(enumerate_space(f2, 2))
    # a translation alone: closed under neither composition-with-swap nor
    # inverse absence... its own inverse is itself (order 2) so drop identity
    shift = tuple(points.index(p + Vector.make(f2, ["1", "0"])) for p in points)
    result = EnumerationResult(
        q=2, n=2, norm=ONE, centred=False, points=points,
        isometries=(shift,), attempts=1, axial=1)
    report = group_closure_check(result)
    assert not report.ok
    assert not report.has_identity


def test_group_closure_keeps_first_ten_missing():
    points = tuple(enumerate_space(FieldSpec.gf(5), 1))
    # one of each pair of mutually inverse non-involutions: no inverse is present
    perms = [p for p in itertools.permutations(range(5))
             if p < tuple(sorted(range(5), key=p.__getitem__))]
    result = EnumerationResult(
        q=5, n=1, norm=ONE, centred=False, points=points,
        isometries=tuple(perms), attempts=1, axial=1)
    report = group_closure_check(result)
    assert not report.inverses_ok
    assert len(report.missing) == 10


def test_result_json_shape():
    result = enumerate_isometries(2, 2)
    payload = result.to_json_dict(timing=False)
    assert payload == {"q": 2, "n": 2, "norm": "one", "centred": False,
                       "isometries": 8, "axial": 8, "formula": 8, "match": True,
                       "attempts": payload["attempts"], "non_axial": 0}
    assert "duration_s" in result.to_json_dict()
