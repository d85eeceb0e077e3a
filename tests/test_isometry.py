from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ultranorm import (
    AffineMap,
    AxialIsometry,
    DecompositionError,
    FieldSpec,
    HypothesisError,
    NormSpec,
    ParseError,
    ProbeMap,
    TableMap,
    UnderdeterminedError,
    Vector,
    decompose,
    distance,
    enumerate_space,
    scalar_isometry_from_json,
    sphere_shift_map,
    valuation,
    verify_isometry,
)
from ultranorm.sampling import probe_grid, random_axial_isometry, random_vector

Q3 = FieldSpec.parse("padic:3")
F2 = FieldSpec.parse("gf:2")
F5 = FieldSpec.parse("gf:5")

ONE = NormSpec.one()
SUP = NormSpec.sup()


def _v(field, text):
    return Vector.parse(field, text)


# -- scalar isometries ---------------------------------------------------------


def test_affine_map_requires_unit_slope():
    AffineMap(Q3.scalar(2), Q3.scalar(5))  # |2| = 1, fine
    with pytest.raises(ValueError):
        AffineMap(Q3.scalar(3), Q3.scalar(0))  # |3| = 1/3
    with pytest.raises(ValueError):
        AffineMap(Q3.scalar(0), Q3.scalar(0))


def test_affine_map_apply_and_inverse():
    tau = AffineMap(Q3.scalar(2), Q3.scalar(1))
    a = Q3.scalar(Fraction(5, 2))
    assert tau.apply(a).value == 6
    assert tau.inverse().apply(tau.apply(a)) == a
    assert not tau.is_centred
    assert AffineMap(Q3.scalar(-1), Q3.scalar(0)).is_centred


def test_table_map_must_be_metric_preserving():
    # 5 -> {0,1,2,3,4} residue permutations are exactly the gf isometries
    tau = TableMap.from_residues(F5, [1, 2, 3, 4, 0])
    assert tau.apply(F5.scalar(4)).value == 0
    assert tau.inverse().apply(F5.scalar(0)).value == 4
    with pytest.raises(ValueError):
        TableMap.from_residues(F5, [0, 0, 1, 2, 3])  # not injective
    with pytest.raises(ValueError):
        TableMap.from_residues(F5, [0, 1, 2])  # not the whole field


def test_rational_table_map_checks_distances():
    # pairs (0,0), (1,1), (3,9) break |a-b|: |1-3|=1 but |1-9|=1... |0-3|=1/3
    # vs |0-9|=1/9 -> rejected
    with pytest.raises(ValueError):
        TableMap.from_pairs(Q3, [(0, 0), (1, 1), (3, 9)])
    tau = TableMap.from_pairs(Q3, [(0, 0), (1, 2), (3, 6)])
    assert tau.apply(Q3.scalar(3)).value == 6
    with pytest.raises(KeyError):
        tau.apply(Q3.scalar(7))


def test_scalar_isometry_json_round_trip():
    affine = AffineMap(Q3.scalar(-2), Q3.scalar(Fraction(1, 3)))
    assert scalar_isometry_from_json(Q3, affine.to_json_dict()) == affine
    table = TableMap.from_residues(F5, [4, 3, 2, 1, 0])
    assert scalar_isometry_from_json(F5, table.to_json_dict()) == table


def test_scalar_isometry_json_takes_exact_numbers():
    assert scalar_isometry_from_json(Q3, {"affine": [-2, "1/3"]}) == AffineMap(
        Q3.scalar(-2), Q3.scalar(Fraction(1, 3)))
    table = TableMap.from_pairs(Q3, [(0, 0), (1, 2)])
    assert scalar_isometry_from_json(Q3, {"table": [[0, 0], ["1", 2]]}) == table


@pytest.mark.parametrize("field, obj, named", [
    (F5, {"table": 5}, "5"),
    (Q3, {"table": [[1, 2, 3]]}, "[1, 2, 3]"),
    (Q3, {"affine": ["1"]}, "['1']"),
    (Q3, {"affine": [0.5, "0"]}, "0.5"),
    (F5, {"table": [0, 1, 2, 3, 4.0]}, "4.0"),
], ids=["table-a-number", "table-entry-a-triple", "affine-one-coefficient",
        "affine-a-float", "residue-a-float"])
def test_scalar_isometry_json_errors_are_parse_errors(field, obj, named):
    with pytest.raises(ParseError) as err:
        scalar_isometry_from_json(field, obj)
    assert named in str(err.value)


# -- axial isometries ----------------------------------------------------------


def test_identity_and_swap():
    ident = AxialIsometry.identity(Q3, 2)
    x = _v(Q3, "5,1/3")
    assert ident.apply(x) == x
    swap = AxialIsometry(
        sigma=(1, 0),
        taus=(AffineMap(Q3.one, Q3.zero), AffineMap(Q3.one, Q3.zero)),
        translation=Vector.zero(Q3, 2),
    )
    assert swap.apply(_v(Q3, "3,5")) == _v(Q3, "5,3")
    assert swap.compose(swap).apply(x) == x  # two swaps cancel


def test_apply_known_affine_example():
    # tau_1: a -> 2a + 1, tau_2 identity, sigma identity: (3,5) -> (7,5)
    iso = AxialIsometry(
        sigma=(0, 1),
        taus=(AffineMap(Q3.scalar(2), Q3.one), AffineMap(Q3.one, Q3.zero)),
        translation=Vector.zero(Q3, 2),
    )
    assert iso.apply(_v(Q3, "3,5")) == _v(Q3, "7,5")


def test_axial_isometries_preserve_one_norm():
    rng = random.Random(31)
    for field, n in ((Q3, 2), (Q3, 3), (F5, 2), (F2, 3)):
        for _ in range(20):
            iso = random_axial_isometry(field, n, rng)
            for _ in range(10):
                x = random_vector(field, n, rng)
                y = random_vector(field, n, rng)
                assert distance(iso.apply(x), iso.apply(y), ONE) == distance(x, y, ONE)


def test_compose_matches_pointwise_application():
    rng = random.Random(32)
    points = enumerate_space(F5, 3)
    for _ in range(10):
        f = random_axial_isometry(F5, 3, rng)
        g = random_axial_isometry(F5, 3, rng)
        h = f.compose(g)
        for x in points:
            assert h.apply(x) == f.apply(g.apply(x))


def test_inverse_is_two_sided():
    rng = random.Random(33)
    for field, n in ((Q3, 3), (F5, 2)):
        for _ in range(15):
            f = random_axial_isometry(field, n, rng)
            inv = f.inverse()
            for _ in range(8):
                x = random_vector(field, n, rng)
                assert inv.apply(f.apply(x)) == x
                assert f.apply(inv.apply(x)) == x


def test_axial_isometry_json_round_trip():
    rng = random.Random(34)
    for field, n in ((Q3, 3), (F5, 2)):
        for _ in range(10):
            iso = random_axial_isometry(field, n, rng)
            back = AxialIsometry.from_json(iso.to_json_dict())
            for _ in range(6):
                x = random_vector(field, n, rng)
                assert back.apply(x) == iso.apply(x)


def test_sigma_must_be_permutation():
    taus = (AffineMap(Q3.one, Q3.zero), AffineMap(Q3.one, Q3.zero))
    with pytest.raises(ValueError):
        AxialIsometry(sigma=(0, 0), taus=taus, translation=Vector.zero(Q3, 2))


def test_centred_flag():
    assert AxialIsometry.identity(Q3, 2).is_centred
    shifted = AxialIsometry(
        sigma=(0, 1),
        taus=(AffineMap(Q3.one, Q3.zero), AffineMap(Q3.one, Q3.zero)),
        translation=_v(Q3, "1,0"),
    )
    assert not shifted.is_centred
    bent = AxialIsometry(
        sigma=(0, 1),
        taus=(AffineMap(Q3.one, Q3.one), AffineMap(Q3.one, Q3.zero)),
        translation=Vector.zero(Q3, 2),
    )
    assert not bent.is_centred  # tau_1(0) = 1 != 0


# -- probe maps and verification -----------------------------------------------


def test_probe_map_json_round_trip():
    rng = random.Random(35)
    iso = random_axial_isometry(Q3, 2, rng)
    pm = ProbeMap.from_isometry(iso, probe_grid(Q3, 2, 12))
    back = ProbeMap.from_json(pm.to_json_dict())
    assert back == pm
    assert back.image_of(pm.domain[3]) == pm.images[3]


def test_probe_map_json_takes_integer_coordinates():
    pm = ProbeMap.from_json({"field": "gf:5", "n": 2, "pairs": [[[0, 7], [1, -1]]]})
    assert pm.domain == (_v(F5, "0,2"),) and pm.images == (_v(F5, "1,4"),)
    big = 12345678901234567890
    pm = ProbeMap.from_json({"field": "padic:3", "n": 1, "pairs": [[[big], [str(big)]]]})
    assert pm.domain == pm.images == (Vector.make(Q3, [big]),)


def test_probe_map_rejects_malformed_input():
    with pytest.raises(Exception):
        ProbeMap.from_json({"field": "padic:3"})
    x = _v(Q3, "1,0")
    with pytest.raises(ValueError):
        ProbeMap((x, x), (x, x), False)  # duplicate domain point


def test_verify_swap_on_complete_space():
    points = enumerate_space(F2, 2)
    swap = AxialIsometry(
        sigma=(1, 0),
        taus=(TableMap.from_residues(F2, [0, 1]), TableMap.from_residues(F2, [0, 1])),
        translation=Vector.zero(F2, 2),
    )
    pm = ProbeMap.from_isometry(swap, points, complete=True)
    report = verify_isometry(pm, ONE)
    assert report.ok and report.surjective and report.injective
    assert report.pairs_checked == 6


def test_verify_detects_distance_violation():
    # corrupt the identity on F_2^2: send (1,0) to (1,1)
    points = enumerate_space(F2, 2)
    images = [(_v(F2, "1,1") if p == _v(F2, "1,0") else p) for p in points]
    pm = ProbeMap(tuple(points), tuple(images), complete=True)
    report = verify_isometry(pm, ONE)
    assert not report.ok
    assert report.distance_violations
    assert not report.injective  # (1,1) is hit twice
    payload = report.to_json_dict()
    assert payload["ok"] is False and payload["violations"]


def test_verify_report_keeps_first_ten_and_counts_all():
    points = probe_grid(Q3, 2, 12)
    pm = ProbeMap.from_callable(lambda x: Vector.zero(Q3, 2), points)  # all collide
    report = verify_isometry(pm, ONE)
    assert report.pairs_checked == 66
    assert report.violation_count == 66 and report.collision_count == 66
    assert len(report.distance_violations) == 10 and len(report.collisions) == 10
    assert not report.ok and not report.injective
    payload = report.to_json_dict()
    assert len(payload["violations"]) == 10 and len(payload["collisions"]) == 10
    assert list(payload)[-2:] == ["violation_count", "collision_count"]
    assert payload["violation_count"] == 66 and payload["collision_count"] == 66


def test_verify_reports_non_surjective_complete_map():
    points = enumerate_space(F2, 1)
    pm = ProbeMap(tuple(points), (points[0], points[0]), complete=True)
    report = verify_isometry(pm, ONE)
    assert report.surjective is False


# -- decomposition ---------------------------------------------------------------


def test_decompose_identity():
    points = enumerate_space(F2, 2)
    pm = ProbeMap.from_isometry(AxialIsometry.identity(F2, 2), points, complete=True)
    rec = decompose(pm)
    assert rec.sigma == (0, 1)
    assert rec.translation == Vector.zero(F2, 2)
    assert rec.is_centred


def test_decompose_round_trip_random_finite():
    rng = random.Random(36)
    points = enumerate_space(F5, 2)
    for _ in range(25):
        iso = random_axial_isometry(F5, 2, rng)
        pm = ProbeMap.from_isometry(iso, points, complete=True)
        rec = decompose(pm)
        for x in points:
            assert rec.apply(x) == iso.apply(x)


def test_decompose_round_trip_random_padic():
    rng = random.Random(37)
    grid = probe_grid(Q3, 2, 48)
    for _ in range(25):
        iso = random_axial_isometry(Q3, 2, rng)
        pm = ProbeMap.from_isometry(iso, grid)
        rec = decompose(pm)
        for x in grid:
            assert rec.apply(x) == iso.apply(x)
        # the reconstruction generalizes beyond the probe set
        for _ in range(10):
            x = random_vector(Q3, 2, rng)
            assert rec.apply(x) == iso.apply(x)


def test_decompose_recovers_axis_permutation():
    rng = random.Random(38)
    for _ in range(20):
        iso = random_axial_isometry(Q3, 3, rng, centred=True)
        grid = probe_grid(Q3, 3, 60)
        rec = decompose(ProbeMap.from_isometry(iso, grid))
        assert rec.sigma == iso.sigma
        # axis images of a centred isometry stay on a single axis
        for i in range(3):
            e = Vector.make(Q3, ["9" if j == i else "0" for j in range(3)])
            image = iso.apply(e)
            nonzero = [c for c in image.coords if not c.is_zero]
            assert len(nonzero) == 1


def test_decompose_requires_origin():
    grid = [p for p in probe_grid(Q3, 2, 12) if any(not c.is_zero for c in p.coords)]
    pm = ProbeMap.from_isometry(AxialIsometry.identity(Q3, 2), grid)
    with pytest.raises(ValueError):
        decompose(pm)


def test_decompose_underdetermined_bare_axis():
    pts = [_v(Q3, "0,0"), _v(Q3, "1,1"), _v(Q3, "3,1/3")]
    pm = ProbeMap.from_isometry(AxialIsometry.identity(Q3, 2), pts)
    with pytest.raises(UnderdeterminedError) as err:
        decompose(pm)
    assert err.value.axis in (0, 1)


def test_decompose_rejects_non_axial_map():
    # an isometry of the *sup* norm that is not axial cannot decompose
    grid = probe_grid(Q3, 2, 36)
    pm = sphere_shift_map(_v(Q3, "1,0"), _v(Q3, "1/3,0"), grid)
    with pytest.raises(DecompositionError) as err:
        decompose(pm)
    assert err.value.witness is not None


# -- the sphere-shift counterexample ---------------------------------------------


def test_sphere_shift_spec_instance():
    # e0=(1,0), v0=(1/3,0): ||e0||_sup = 1 < 3 = ||v0||_sup
    e0, v0 = _v(Q3, "1,0"), _v(Q3, "1/3,0")
    grid = probe_grid(Q3, 2, 48)
    pm = sphere_shift_map(e0, v0, grid)
    report = verify_isometry(pm, SUP)
    assert report.ok and not report.distance_violations
    moved = [x for x, y in zip(pm.domain, pm.images) if y != x]
    assert moved, "grid must contain points on the critical sphere"
    from ultranorm import norm

    for x in moved:
        assert norm(x, SUP) == norm(v0, SUP)
        assert pm.image_of(x) == x + e0
    for x in pm.domain:
        if norm(x, SUP) != norm(v0, SUP):
            assert pm.image_of(x) == x


def test_sphere_shift_identity_off_sphere():
    # no probe has sup-norm 1/9, so T fixes everything
    e0, v0 = _v(Q3, "9,0"), _v(Q3, "1/9,0")
    probes = [_v(Q3, "1,0"), _v(Q3, "0,3"), _v(Q3, "1,1")]
    pm = sphere_shift_map(e0, v0, probes)
    assert list(pm.images) == probes


def test_sphere_shift_hypothesis_checks():
    with pytest.raises(HypothesisError):
        sphere_shift_map(_v(Q3, "1,0"), _v(Q3, "3,0"), [])  # ||e0|| = 1 >= 1/3
    f2 = FieldSpec.parse("gf:2")
    with pytest.raises(HypothesisError):
        sphere_shift_map(_v(f2, "1,0"), _v(f2, "1,1"), [])
    with pytest.raises(HypothesisError):
        sphere_shift_map(_v(Q3, "3,0"), _v(Q3, "1,0"), [], spec=ONE)  # not ultrametric
