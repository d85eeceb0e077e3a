from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest

from ultranorm import (
    AffineMap,
    AxialIsometry,
    DecompositionError,
    DimensionMismatchError,
    FieldMismatchError,
    FieldSpec,
    HypothesisError,
    InvalidInputError,
    NormSpec,
    ProbeMap,
    TableMap,
    UltranormError,
    UnderdeterminedError,
    Vector,
    decompose,
    distance,
    enumerate_space,
    sphere_shift_map,
    valuation,
    verify_isometry,
)
from ultranorm.errors import OutsideDomainError
from ultranorm.sampling import random_vector

from gen import probe_grid, random_axial_isometry

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


def test_affine_map_str():
    assert str(AffineMap(Q3.scalar(2), Q3.scalar(Fraction(1, 3)))) == "a -> 2*a + 1/3"
    assert str(AffineMap(Q3.scalar(-1), Q3.scalar(0))) == "a -> -1*a + 0"


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
    assert dict(zip(back.domain, back.images))[pm.domain[3]] == pm.images[3]


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
    pm = ProbeMap(tuple(points), (Vector.zero(Q3, 2),) * len(points))  # all collide
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


def _probe_map(field, rows):
    return ProbeMap(tuple(_v(field, x) for x, _ in rows), tuple(_v(field, y) for _, y in rows))


# 1 <-> 4 swapped, 0 fixed: a partial rational table that no affine map fits
SWAP_ROWS = [("0,0", "0,0"), ("1,0", "4,0"), ("4,0", "1,0"), ("0,1", "0,1")]


@pytest.mark.parametrize("field, rows, error, message, witness, axis", [
    (Q3, [("1,0", "1,0")], InvalidInputError,
     "probe domain must contain the origin", None, None),
    (Q3, [("0,0", "0,0"), ("1,0", "1,0"), ("1,1", "1,1")], UnderdeterminedError,
     "axis 1 has no nonzero probes", None, 1),
    (FieldSpec.parse("gf:3"), [("0", "1"), ("1", "0")], UnderdeterminedError,
     "axis 0 lacks probes at ['2']", None, 0),
    (Q3, [("0,0", "0,0"), ("1,0", "1,1"), ("0,1", "0,1")], DecompositionError,
     "image of axis probe 1,0 is not on a single axis", ("1,0", "1,1"), None),
    (Q3, [("0,0", "0,0"), ("1,0", "1,0"), ("3,0", "0,3"), ("0,1", "0,1")],
     DecompositionError, "axis 0 probes land on axes 0 and 1", ("3,0", "0,3"), None),
    (Q3, [("0,0", "0,0"), ("1,0", "1,0"), ("0,1", "2,0")], DecompositionError,
     "two axes map onto axis 0", ("0,1", "2,0"), None),
    (Q3, [("0,0", "1,1"), ("1,0", "4,1"), ("0,1", "1,2")], DecompositionError,
     "axis 0 data fits no scalar isometry: table not metric-preserving: "
     "|1-0|=1 but |3-0|=1/3", ("1,0", "4,1"), None),
    (Q3, SWAP_ROWS + [("5/7,5/7", "5/7,5/7")], UnderdeterminedError,
     "cannot replay probe 5/7,5/7: value 5/7 not in isometry table", None, 0),
    (Q3, [("0,0", "0,0"), ("1,0", "1,0"), ("0,1", "0,1"), ("1,1", "1,2")],
     DecompositionError, "probe 1,1 maps to 1,2, axial reconstruction gives 1,1",
     ("1,1", "1,2"), None),
], ids=["origin-missing", "bare-axis", "gf-axis-missing-residue", "image-off-axis",
        "axis-lands-on-two-axes", "two-axes-onto-one", "fits-no-scalar-isometry",
        "table-cannot-replay", "reconstruction-mismatch"])
def test_decompose_failure_stages(field, rows, error, message, witness, axis):
    with pytest.raises(error) as err:
        decompose(_probe_map(field, rows))
    assert type(err.value) is error
    assert str(err.value) == message
    if witness is not None:
        assert tuple(map(str, err.value.witness)) == witness
    if axis is not None:
        assert err.value.axis == axis


def test_decompose_returns_rational_table_when_no_affine_map_fits():
    pm = _probe_map(Q3, SWAP_ROWS + [("1,4", "4,4"), ("4,1", "1,1")])
    rec = decompose(pm)
    assert rec.sigma == (0, 1)
    assert rec.taus[0] == TableMap.from_pairs(Q3, [(1, 4), (4, 1), (0, 0)])
    assert rec.taus[1] == AffineMap(Q3.one, Q3.zero)
    for x, y in zip(pm.domain, pm.images):
        assert rec.apply(x) == y


# -- lookups outside a partial table or probe domain -----------------------------


def _partial_isometry(pairs):
    tau = TableMap.from_pairs(Q3, pairs)
    return AxialIsometry((0,), (tau,), Vector.zero(Q3, 1))


def test_compose_of_disjoint_partial_tables_is_a_typed_error():
    outer, inner = _partial_isometry([(0, 0), (1, 4)]), _partial_isometry([(0, 0), (2, 5)])
    with pytest.raises(OutsideDomainError, match="^value 5 not in isometry table$") as err:
        outer.compose(inner)
    assert isinstance(err.value, UltranormError)
    assert err.value.to_json_dict() == {
        "type": "invalid-input", "message": "value 5 not in isometry table"}


def test_apply_outside_a_partial_table_is_a_typed_error():
    iso = _partial_isometry([(0, 0), (1, 4)])
    assert iso.apply(_v(Q3, "1")) == _v(Q3, "4")
    with pytest.raises(OutsideDomainError, match="^value 2/3 not in isometry table$"):
        iso.apply(_v(Q3, "2/3"))


# -- a lookup refuses a foreign operand through _check, before the lookup ----------


def _refusal(call):
    try:
        call()
    except Exception as exc:   # the class and message are what the test compares
        return type(exc), str(exc)
    raise AssertionError("no refusal")


_TABLES = {"gf:5": TableMap.from_residues(F5, [0, 2, 4, 1, 3]),
           "padic:3-partial": TableMap.from_pairs(Q3, [(0, 0), (1, 2), ("1/3", "5/3")]),
           "trivial:q": TableMap.from_pairs(FieldSpec.trivial(), [(0, 1), (1, 0)])}
_STRANGERS = {"gf:2": F2.one, "gf:5": F5.one, "padic:3": Q3.one,
              "padic:5": FieldSpec.parse("padic:5").one, "trivial:q": FieldSpec.trivial().one,
              "int": 1}


@pytest.mark.parametrize("table, stranger", [
    pytest.param(table, stranger, id=f"{t}-{k}")
    for t, table in _TABLES.items() for k, stranger in _STRANGERS.items()
    if getattr(stranger, "field", None) is not table.field])
def test_table_apply_refuses_a_foreign_operand_as_affine_apply_does(table, stranger):
    affine = AffineMap(table.field.one, table.field.zero)
    expected = (TypeError, "expected Scalar, got int") if type(stranger) is int else (
        FieldMismatchError, f"mixing {table.field} with {stranger.field}")
    assert _refusal(lambda: table.apply(stranger)) == _refusal(lambda: affine.apply(stranger))
    assert _refusal(lambda: table.apply(stranger)) == expected


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

    image_of = dict(zip(pm.domain, pm.images))
    for x in moved:
        assert norm(x, SUP) == norm(v0, SUP)
        assert image_of[x] == x + e0
    for x in pm.domain:
        if norm(x, SUP) != norm(v0, SUP):
            assert image_of[x] == x


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


def test_sphere_shift_rejects_probes_from_another_field_or_dimension():
    e0, v0 = _v(Q3, "1,0"), _v(Q3, "1/3,0")
    with pytest.raises(FieldMismatchError, match="^mixing padic:3 with gf:2$"):
        sphere_shift_map(e0, v0, [_v(F2, "0,0"), _v(F2, "1,0")])
    # no probe lies on the sphere ||x|| = 3, so no sum would have caught these
    with pytest.raises(DimensionMismatchError, match="^dimension 2 vs 3$"):
        sphere_shift_map(e0, v0, [_v(Q3, "0,0"), _v(Q3, "0,0,0"), _v(Q3, "1,0,0")])


@pytest.mark.parametrize("field", [Q3, F5, FieldSpec.trivial()], ids=str)
@pytest.mark.parametrize("copier", ["pickle", "deepcopy", "copy"])
def test_values_survive_pickle_and_copy_with_the_interned_field(field, copier):
    import copy
    import pickle

    copy_of = {"pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
               "deepcopy": copy.deepcopy, "copy": copy.copy}[copier]
    x, y = _v(field, "1,2"), _v(field, "2,1")
    probes = ProbeMap((x, y), (y, x))
    assert copy_of(field) is field
    for value in (field.scalar(2), x):
        back = copy_of(value)
        assert back == value and hash(back) == hash(value) and back.field is field
    back = copy_of(probes)
    assert back == probes and back.field is field
    assert back.domain == (x, y) and back.images == (y, x)


def _frozen_values():
    """One value per frozen class (two NormSpecs, two TableMaps), with its repr
    in the form the earlier dataclass versions printed."""
    from ultranorm import segment

    f2_0, f2_1 = _v(F2, "0"), _v(F2, "1")
    return {
        "NormSpec-one": (NormSpec.one(), "NormSpec(kind='one', weights=None)"),
        "NormSpec-wsup": (NormSpec.parse("wsup:1/2,2"),
                          "NormSpec(kind='wsup', weights=(Fraction(1, 2), Fraction(2, 1)))"),
        "AffineMap": (AffineMap(Q3.scalar(2), Q3.one),
                      "AffineMap(u=Scalar(padic:3, 2), c=Scalar(padic:3, 1))"),
        "TableMap-gf": (TableMap.from_residues(F2, [1, 0]),
                        "TableMap(entries=((Scalar(gf:2, 0), Scalar(gf:2, 1)), "
                        "(Scalar(gf:2, 1), Scalar(gf:2, 0))))"),
        "TableMap-rational": (TableMap.from_pairs(Q3, [(1, 2), (0, 0)]),
                              "TableMap(entries=((Scalar(padic:3, 1), Scalar(padic:3, 2)), "
                              "(Scalar(padic:3, 0), Scalar(padic:3, 0))))"),
        "AxialIsometry": (AxialIsometry.identity(F2, 1),
                          "AxialIsometry(sigma=(0,), taus=(AffineMap(u=Scalar(gf:2, 1), "
                          "c=Scalar(gf:2, 0)),), translation=Vector(gf:2, 0))"),
        "ProbeMap": (ProbeMap((f2_0, f2_1), (f2_1, f2_0), complete=True),
                     "ProbeMap(domain=(Vector(gf:2, 0), Vector(gf:2, 1)), "
                     "images=(Vector(gf:2, 1), Vector(gf:2, 0)), complete=True)"),
        "SegmentEnumeration": (segment(f2_0, f2_1),
                               "SegmentEnumeration(x=Vector(gf:2, 0), y=Vector(gf:2, 1), k=1, "
                               "points=(Vector(gf:2, 0), Vector(gf:2, 1)))"),
    }


@pytest.mark.parametrize("name", sorted(_frozen_values()))
@pytest.mark.parametrize("copier", ["pickle", "deepcopy", "copy"])
def test_frozen_classes_survive_pickle_and_copy(name, copier):
    import copy
    import pickle

    copy_of = {"pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
               "deepcopy": copy.deepcopy, "copy": copy.copy}[copier]
    value, expected_repr = _frozen_values()[name]
    back = copy_of(value)
    assert type(back) is type(value)
    assert back == value and hash(back) == hash(value)
    assert repr(value) == repr(back) == expected_repr
    if isinstance(value, TableMap):
        for a, b in value.entries:
            assert back.apply(a) == b
        with pytest.raises(OutsideDomainError if value.field is Q3 else FieldMismatchError):
            back.apply(Q3.scalar(5) if value.field is Q3 else F5.one)
    if isinstance(value, ProbeMap):
        assert dict(zip(back.domain, back.images)) == dict(zip(value.domain, value.images))
        with pytest.raises(AttributeError):
            back.complete = False


@pytest.mark.parametrize("value, other", [
    (NormSpec.one(), "one"),
    (AffineMap(F5.one, F5.scalar(2)), TableMap.from_residues(F5, [2, 3, 4, 0, 1])),
    (ProbeMap((_v(F2, "0"), _v(F2, "1")), (_v(F2, "1"), _v(F2, "0"))),
     (_v(F2, "0"), _v(F2, "1"))),
], ids=["norm-vs-str", "affine-vs-its-table", "probe-map-vs-tuple"])
def test_a_value_compared_with_another_class_is_unequal(value, other):
    # __eq__ returns NotImplemented, so Python falls back to identity
    assert all(value.apply(a) == b for a, b in getattr(other, "entries", ()))
    assert (value == other) is False and (value != other) is True
    assert (other == value) is False and (other != value) is True


# -- raw values and tuple arguments ----------------------------------------------


@pytest.mark.parametrize("build, message", [
    (lambda x, y, tau: ProbeMap([x, y], (y, x)), "probe map domain must be a tuple, got list"),
    (lambda x, y, tau: ProbeMap((x, y), [y, x]), "probe map images must be a tuple, got list"),
    (lambda x, y, tau: ProbeMap((x, y), (y, x), complete=1),
     "probe map complete must be a bool, got int"),
    (lambda x, y, tau: TableMap(list(tau.entries)), "table entries must be a tuple, got list"),
    (lambda x, y, tau: AxialIsometry([0], (tau,), x), "axial isometry sigma must be a tuple, got list"),
    (lambda x, y, tau: AxialIsometry((0,), [tau], x), "axial isometry taus must be a tuple, got list"),
], ids=["domain", "images", "complete", "entries", "sigma", "taus"])
def test_value_classes_refuse_lists_and_a_non_bool_complete(build, message):
    # a list would leave the value unhashable and growable, and complete=1
    # would print "complete":1
    x, y, tau = _v(F2, "0"), _v(F2, "1"), TableMap.from_residues(F2, [1, 0])
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        build(x, y, tau)
    assert hash(ProbeMap((x, y), (y, x), complete=True))
    assert hash(AxialIsometry((0,), (tau,), x)) == hash(AxialIsometry((0,), (tau,), x))


@pytest.mark.parametrize("table, stranger, message", [
    (TableMap.from_residues(FieldSpec.gf(3), [0, 2, 1]), F5.scalar(1), "mixing gf:3 with gf:5"),
    (TableMap.from_pairs(Q3, [(0, 0), (1, 2)]), FieldSpec.trivial().scalar(Fraction(1)),
     "mixing padic:3 with trivial:q"),
], ids=["gf:3-gf:5", "padic:3-trivial:q"])
def test_table_apply_refuses_an_equal_raw_value_from_another_field(table, stranger, message):
    own = table.field.scalar(1)
    assert own.value == stranger.value and table.apply(own) is table.entries[1][1]
    with pytest.raises(FieldMismatchError, match=f"^{message}$"):
        table.apply(stranger)


@pytest.mark.parametrize("table, centred", [
    (TableMap.from_residues(F5, [0, 2, 4, 1, 3]), True),
    (TableMap.from_residues(F5, [1, 2, 3, 4, 0]), False),
    (TableMap.from_pairs(Q3, [(1, 2), (0, 0), (3, 6)]), True),
    (TableMap.from_pairs(Q3, [(0, 1), (1, 0)]), False),
    (TableMap.from_pairs(Q3, [(1, 2), (3, 6)]), False),
], ids=["gf-full-centred", "gf-full-shifted", "partial-centred", "partial-shifted", "zero-less"])
def test_table_is_centred(table, centred):
    assert table.is_centred is centred


@pytest.mark.parametrize("copier", ["pickle", "deepcopy", "copy"])
def test_vectors_with_a_filled_raw_cache_survive_pickle_and_copy(copier):
    import copy
    import pickle

    copy_of = {"pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
               "deepcopy": copy.deepcopy, "copy": copy.copy}[copier]
    f3 = FieldSpec.gf(3)
    points = enumerate_space(f3, 2)
    iso = AxialIsometry((1, 0), (TableMap.from_residues(f3, [0, 2, 1]),) * 2, _v(f3, "1,2"))
    expected = decompose(ProbeMap.from_isometry(iso, points, complete=True))   # fills the caches
    back = [copy_of(p) for p in points]
    assert back == points and [hash(p) for p in back] == [hash(p) for p in points]
    assert decompose(ProbeMap.from_isometry(iso, back, complete=True)) == expected
    assert expected.to_json_dict() == iso.to_json_dict()


@pytest.mark.parametrize("entry, message", [
    (lambda one: [one, one], "table entry must be a tuple, got list"),
    (lambda one: (one,), "table entry must be a pair, got 1 items"),
    (lambda one: (one, one, one), "table entry must be a pair, got 3 items"),
], ids=["a-list", "one-item", "three-items"])
def test_table_refuses_an_entry_that_is_not_a_pair(entry, message):
    # a list pair would leave the table unhashable; a short or long one would
    # fail to unpack with a bare ValueError
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        TableMap(((F2.zero, F2.zero), entry(F2.one)))


def test_axial_isometry_refuses_bool_sigma_entries():
    # sorted((True, False)) == [0, 1], and the JSON would print [true,false]
    taus = (TableMap.from_residues(F5, [0, 2, 4, 1, 3]), AffineMap(F5.one, F5.zero))
    with pytest.raises(InvalidInputError,
                       match=r"^axial isometry sigma entries must be ints, got \(True, False\)$"):
        AxialIsometry((True, False), taus, _v(F5, "1,2"))
    iso = AxialIsometry((1, 0), taus, _v(F5, "1,2"))
    assert iso.to_json_dict()["sigma"] == [1, 0]


@pytest.mark.parametrize("q, message", [
    (11, "axis 0 lacks probes at ['10', '2', '3', '4', '5', '6', '7', '8', '9']"),
    (13, "axis 0 lacks probes at ['10', '11', '2', '3', '4', '5', '6', '7', '8', '9'] and 1 more"),
    (1000003, "axis 0 lacks probes at ['10', '11', '2', '3', '4', '5', '6', '7', '8', '9'] "
              "and 999991 more"),
], ids=["nine-missing", "eleven-missing", "q-near-a-million"])
def test_underdetermined_message_names_at_most_ten_missing_residues(q, message):
    field = FieldSpec.gf(q)
    m = ProbeMap((_v(field, "0"), _v(field, "1")), (_v(field, "0"), _v(field, "1")))
    with pytest.raises(UnderdeterminedError) as err:
        decompose(m)
    assert str(err.value) == message and err.value.axis == 0


def test_tables_compare_as_maps_whatever_the_entry_order():
    f3 = FieldSpec.gf(3)
    iso = AxialIsometry((1, 0), (TableMap.from_residues(f3, [0, 2, 1]),
                                 TableMap.from_residues(f3, [0, 1, 2])), _v(f3, "1,2"))
    # the fitted tables list the probes' order, with (0, 0) last
    d = decompose(ProbeMap.from_isometry(iso, enumerate_space(f3, 2), complete=True))
    assert d.taus[0].entries != iso.taus[0].entries
    assert d.to_json_dict() == iso.to_json_dict()
    assert d == iso and hash(d) == hash(iso)
    for table in (TableMap.from_residues(F5, [3, 0, 4, 1, 2]),
                  TableMap.from_pairs(Q3, [(0, 1), (1, 2), (3, 4)])):
        reversed_table = TableMap(table.entries[::-1])
        assert reversed_table.entries != table.entries
        assert reversed_table == table and hash(reversed_table) == hash(table)
        assert str(reversed_table) != str(table)   # entries keep their given order
    other_map = TableMap.from_residues(F5, [3, 0, 4, 2, 1])
    assert TableMap.from_residues(F5, [3, 0, 4, 1, 2]) != other_map
    # equal raw values over other fields are other maps
    assert TableMap.from_pairs(Q3, [(1, 2)]) != TableMap.from_pairs(FieldSpec.trivial(), [(1, 2)])


def test_finite_compose_and_inverse_of_mixed_taus_agree_pointwise():
    # over gf:q a composition is a full table, in whichever entry order, and
    # equals the residue-ordered table of its pointwise values
    f3 = FieldSpec.gf(3)
    points = enumerate_space(f3, 2)
    table = AxialIsometry((1, 0), (TableMap.from_residues(f3, [2, 0, 1]),
                                   AffineMap(f3.scalar(2), f3.one)), _v(f3, "1,0"))
    affine = AxialIsometry((0, 1), (AffineMap(f3.scalar(2), f3.zero),
                                    TableMap.from_residues(f3, [1, 0, 2])), _v(f3, "2,2"))
    for f, g in itertools.product((table, affine, AxialIsometry.identity(f3, 2)), repeat=2):
        h, f_inv = f.compose(g), f.inverse()
        for x in points:
            assert h.apply(x) == f.apply(g.apply(x))
            assert f_inv.apply(f.apply(x)) == x == f.apply(f_inv.apply(x))
        for j, tau in enumerate(h.taus):
            if isinstance(tau, TableMap):
                unit = [_v(f3, "1,0"), _v(f3, "0,1")][h.sigma[j]]
                images = [h.apply(unit.scale(r)).coords[j] - h.translation.coords[j]
                          for r in f3.elements()]
                assert tau == TableMap.from_residues(f3, [b.value for b in images])


def test_trivially_valued_tables_test_injectivity_in_one_pass():
    # a late collision used to cost a pairwise loop over all q(q-1)/2 pairs
    field = FieldSpec.gf(10007)
    t0 = time.perf_counter()
    with pytest.raises(InvalidInputError,
                       match="^table not injective: 10005 and 10006 both map to 10005$"):
        TableMap.from_residues(field, list(range(10006)) + [10005])
    assert time.perf_counter() - t0 < 1
    # 3 is the first input whose image repeats in entry order, though 1 and 4 are the first pair
    trivial = FieldSpec.trivial()
    with pytest.raises(InvalidInputError,
                       match="^table not injective: 2 and 3 both map to 6$"):
        TableMap.from_pairs(trivial, [(0, 0), (1, 5), (2, 6), (3, 6), (4, 5), (5, 5)])
    t0 = time.perf_counter()
    pairs = [(a, a) for a in range(2000)]
    assert TableMap.from_pairs(trivial, pairs).apply(trivial.scalar(1999)) == trivial.scalar(1999)
    assert time.perf_counter() - t0 < 1


# -- probe points are checked once, when the probe map is built -------------------


@pytest.mark.parametrize("stranger, error, message", [
    (_v(F5, "1,2"), FieldMismatchError, "mixing padic:3 with gf:5"),
    (_v(Q3, "1,2,0"), DimensionMismatchError, "dimension 2 vs 3"),
    (3, InvalidInputError, "probe map point must be a Vector, got int"),
    (Q3.scalar(1), InvalidInputError, "probe map point must be a Vector, got Scalar"),
    (AxialIsometry.identity(Q3, 2), InvalidInputError,
     "probe map point must be a Vector, got AxialIsometry"),
], ids=["field", "dimension", "int", "scalar", "isometry"])
@pytest.mark.parametrize("side, index", [("domain", 1), ("domain", -1), ("images", 0),
                                         ("images", -1)])
def test_probe_map_refuses_a_stranger_anywhere_past_the_first_point(stranger, error, message,
                                                                   side, index):
    # verify_isometry checks no operand: it relies on this refusal
    points = [_v(Q3, "0,0"), _v(Q3, "1,0"), _v(Q3, "0,1/3")]
    domain, images = list(points), list(points[::-1])
    (domain if side == "domain" else images)[index] = stranger
    with pytest.raises(error, match=f"^{message}$"):
        ProbeMap(tuple(domain), tuple(images))
