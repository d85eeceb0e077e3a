"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Every check is exact (Fraction arithmetic end to end); the only tolerances
are the stated wall-clock budgets.
"""

from __future__ import annotations

import random
import time

from ultranorm import (
    DecompositionError,
    FieldSpec,
    NormSpec,
    ProbeMap,
    check_norm_axioms,
    check_valuation_axioms,
    decompose,
    differing_positions,
    distance,
    enumerate_isometries,
    exhaustive_betweenness_check,
    is_metrically_between,
    minimize_two_point,
    segment,
    sphere_shift_map,
    verify_isometry,
)
from ultranorm.sampling import norm_axiom_samples, random_scalar, random_vector
from ultranorm.spaces import Vector, enumerate_space

from gen import probe_grid, random_axial_isometry

Q3 = FieldSpec.parse("padic:3")
ONE = NormSpec.one()
SUP = NormSpec.sup()


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_betweenness_equivalence_exhaustive():
    # metric <=> coordinate betweenness over F_3^2, F_2^3, F_5^2; < 5 s total
    t0 = time.perf_counter()
    runs = {
        (3, 2): exhaustive_betweenness_check(3, 2),
        (2, 3): exhaustive_betweenness_check(2, 3),
        (5, 2): exhaustive_betweenness_check(5, 2),
    }
    elapsed = time.perf_counter() - t0
    expected_triples = {(3, 2): 729, (2, 3): 512, (5, 2): 15625}
    for key, report in runs.items():
        assert report.triples == expected_triples[key], key
        assert report.mismatches == 0, report.to_json_dict()
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report(1, True, f"{sum(r.triples for r in runs.values())} triples, "
                     f"0 mismatches, {elapsed:.2f}s")


def test_criterion_2_isometry_counts_and_round_trips():
    # brute-force counts match n!*(q!)^n; every found map decomposes exactly;
    # < 60 s total
    expected = {
        (2, 2, False): 8, (2, 2, True): 2,
        (3, 2, False): 72, (3, 2, True): 8,
        (2, 3, False): 48, (2, 3, True): 6,
    }
    t0 = time.perf_counter()
    total_maps = 0
    for (q, n, centred), count in expected.items():
        result = enumerate_isometries(q, n, centred=centred)
        assert result.count == count, (q, n, centred, result.count)
        assert result.formula == count and result.formula_match
        assert result.axial == count and not result.non_axial_witnesses
        for perm in result.isometries:
            rec = decompose(result.probe_map(perm))
            for point, image_index in zip(result.points, perm):
                assert rec.apply(point) == result.points[image_index]
        total_maps += count
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    _report(2, True, f"counts 8/2, 72/8, 48/6 all match; "
                     f"{total_maps} exact round trips, {elapsed:.2f}s")


def test_criterion_3_segment_cardinality():
    # 200 random p-adic(3) pairs, k <= 12: exactly 2^k points, all satisfying
    # the exact metric equality
    rng = random.Random(1003)
    points_checked = 0
    for _ in range(200):
        n = rng.randint(1, 12)
        x = random_vector(Q3, n, rng)
        y = random_vector(Q3, n, rng)
        k = len(differing_positions(x, y))
        assert k <= 12
        seg = segment(x, y)
        assert seg.k == k
        assert len(seg.points) == 2**k
        assert len(set(seg.points)) == 2**k
        for z in seg.points:
            assert is_metrically_between(x, z, y)
        points_checked += 2**k
    _report(3, True, f"200 pairs, {points_checked} segment points, "
                     f"all exactly 2^k and metrically between")


def test_criterion_4_decomposition_round_trip():
    # 500 random axial isometries over F_5^3 (complete tables) and 500 over
    # p-adic(3) (48-point grids), reconstructed pointwise-exactly
    rng = random.Random(1004)
    f5 = FieldSpec.parse("gf:5")
    space = enumerate_space(f5, 3)
    for _ in range(500):
        iso = random_axial_isometry(f5, 3, rng)
        rec = decompose(ProbeMap.from_isometry(iso, space, complete=True))
        for x in space:
            assert rec.apply(x) == iso.apply(x)
    grid = probe_grid(Q3, 3, 48)
    for _ in range(500):
        iso = random_axial_isometry(Q3, 3, rng)
        rec = decompose(ProbeMap.from_isometry(iso, grid))
        for x in grid:
            assert rec.apply(x) == iso.apply(x)
    _report(4, True, "500 F_5^3 + 500 p-adic(3) reconstructions, "
                     "pointwise exact")


def test_criterion_5_sphere_shift_counterexample():
    # the sup-norm sphere shift verifies cleanly, fails decomposition with a
    # witness; sup-norm enumeration over F_2^2 finds 24 vs 8 for one-norm
    grid = probe_grid(Q3, 2, 48)
    pm = sphere_shift_map(Vector.parse(Q3, "1,0"), Vector.parse(Q3, "1/3,0"), grid)
    report = verify_isometry(pm, SUP)
    assert report.ok and not report.distance_violations
    try:
        decompose(pm)
        raise AssertionError("sphere shift must not decompose")
    except DecompositionError as exc:
        assert exc.witness is not None
    sup_count = enumerate_isometries(2, 2, SUP).count
    one_count = enumerate_isometries(2, 2, ONE).count
    assert sup_count == 24 and one_count == 8
    _report(5, True, "verified isometry, decomposition fails with witness; "
                     "F_2^2 counts 24 (sup) vs 8 (one)")


def test_criterion_6_axiom_sweeps():
    # >= 10,000 exact axiom checks per field, 0 failures, < 10 s
    fields = [FieldSpec.parse(t) for t in ("padic:3", "padic:5", "gf:5", "trivial:q")]
    t0 = time.perf_counter()
    totals = {}
    for field in fields:
        rng = random.Random(1006)
        checks = 0
        pairs = [(random_scalar(field, rng), random_scalar(field, rng))
                 for _ in range(1400)]
        report = check_valuation_axioms(field, pairs)
        assert report.ok, report.to_json_dict()["violations"][:3]
        checks += report.checks
        for spec in (ONE, SUP):
            samples = norm_axiom_samples(field, 2, 700, rng)
            report = check_norm_axioms(spec, field, samples)
            assert report.ok, report.to_json_dict()["violations"][:3]
            checks += report.checks
        assert checks >= 10_000, (str(field), checks)
        totals[str(field)] = checks
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(6, True, f"{sum(totals.values())} checks over {len(fields)} fields, "
                     f"0 violations, {elapsed:.2f}s")


def test_criterion_7_minimizer_matches_segment():
    # 100 random pairs: minimum = ||c - a||_1 exactly, witnesses = segment
    rng = random.Random(1007)
    for _ in range(100):
        n = rng.randint(1, 6)
        a = random_vector(Q3, n, rng)
        c = random_vector(Q3, n, rng)
        minimum, witnesses = minimize_two_point(a, c)
        assert minimum == distance(a, c, ONE)
        assert set(witnesses.points) == set(segment(a, c).points)
    _report(7, True, "100 pairs: minimum equals the distance, "
                     "witness set equals the segment")
