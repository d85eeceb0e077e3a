"""`AxialIsometry.apply` evaluates through a plan kept on the isometry; these
tests hold it to the literal normal form tau_j(x[sigma[j]]) + t_j, written
with `Scalar` arithmetic, on every point of seeded maps over gf:2, gf:5,
gf:7, padic:3, padic:5 and trivial:q, with table, affine and mixed taus.
"""

from __future__ import annotations

import copy
import pickle
import random

import pytest

from ultranorm import (
    AffineMap,
    AxialIsometry,
    FieldSpec,
    TableMap,
    Vector,
    enumerate_space,
)
from ultranorm.errors import OutsideDomainError
from ultranorm.fields import Scalar

from gen import probe_grid, random_axial_isometry

Q3, Q5 = FieldSpec.padic(3), FieldSpec.padic(5)
F5 = FieldSpec.gf(5)
TRIVIAL = FieldSpec.trivial()


def _literal(iso: AxialIsometry, x: Vector) -> Vector:
    return Vector(iso.field, tuple(
        tau.apply(x.coords[src]) + t
        for tau, src, t in zip(iso.taus, iso.sigma, iso.translation.coords)))


def _seeded(field: FieldSpec, n: int, seed: int, centred: bool = False):
    return random_axial_isometry(field, n, random.Random(seed), centred)


def _points(field: FieldSpec, n: int) -> list[Vector]:
    if field.kind == "gf":
        return enumerate_space(field, n)
    return probe_grid(field, n, 60)


def _mixed(field: FieldSpec) -> AxialIsometry:
    """Two table taus around an affine one; over the rationals the tables are
    partial, so the points are drawn from their domains."""
    if field.kind == "gf":
        taus = (TableMap.from_residues(field, [3, 0, 4, 1, 2]),
                AffineMap(field.scalar(2), field.scalar(3)),
                TableMap.from_residues(field, [1, 2, 3, 4, 0]))
        translation = [1, 2, 4]
    else:
        taus = (TableMap.from_pairs(field, [(0, 1), (1, 0), ("1/3", "4/3")]),
                AffineMap(field.scalar(-2), field.scalar("5/9")),
                TableMap.from_pairs(field, [(0, 0), (1, 2), ("1/3", "2/3")]))
        translation = [1, "1/9", 4]
    return AxialIsometry((2, 0, 1), taus, Vector.make(field, translation))


def _mixed_points(field: FieldSpec) -> list[Vector]:
    if field.kind == "gf":
        return enumerate_space(field, 3)
    # coordinate 2 feeds the first table and coordinate 1 the second
    return [Vector.make(field, [c, b, a]) for a in (0, 1, "1/3") for b in (0, 1, "1/3")
            for c in (0, 7, "2/5")]


CASES = {
    **{f"gf:{q}-seed{seed}": (lambda q=q, seed=seed: _seeded(FieldSpec.gf(q), 3, seed),
                              lambda q=q: _points(FieldSpec.gf(q), 3))
       for q in (2, 5, 7) for seed in (1, 2)},
    "gf:5-centred": (lambda: _seeded(F5, 2, 3, centred=True), lambda: _points(F5, 2)),
    **{f"padic:{p}-affine-seed{seed}": (
        lambda p=p, seed=seed: _seeded(FieldSpec.padic(p), 3, seed),
        lambda p=p: _points(FieldSpec.padic(p), 3)) for p in (3, 5) for seed in (1, 2)},
    "padic:3-centred": (lambda: _seeded(Q3, 2, 4, centred=True), lambda: _points(Q3, 2)),
    "trivial-affine": (lambda: _seeded(TRIVIAL, 2, 5), lambda: _points(TRIVIAL, 2)),
    # input 1 feeds the table, so its coordinates stay in the table's domain
    "trivial-table": (lambda: AxialIsometry(
        (1, 0), (TableMap.from_pairs(TRIVIAL, [(0, 5), (1, 0), (5, 1)]),
                 AffineMap(TRIVIAL.scalar(7), TRIVIAL.scalar(-1))), Vector.make(TRIVIAL, [2, 3])),
        lambda: [Vector.make(TRIVIAL, [b, a]) for a in (0, 1, 5) for b in (0, 2, "1/2")]),
    "gf:5-affine": (lambda: AxialIsometry(
        (0, 1), (AffineMap(F5.scalar(3), F5.scalar(4)), AffineMap(F5.scalar(4), F5.zero)),
        Vector.make(F5, [2, 4])), lambda: _points(F5, 2)),
    "padic:3-partial-table": (lambda: AxialIsometry(
        (0,), (TableMap.from_pairs(Q3, [(0, 0), (1, 4), ("2/3", "-1/3")]),),
        Vector.make(Q3, ["1/9"])), lambda: [Vector.make(Q3, [a]) for a in (0, 1, "2/3")]),
    "gf:5-mixed": (lambda: _mixed(F5), lambda: _mixed_points(F5)),
    "padic:3-mixed": (lambda: _mixed(Q3), lambda: _mixed_points(Q3)),
    "padic:5-mixed": (lambda: _mixed(Q5), lambda: _mixed_points(Q5)),
}


@pytest.mark.parametrize("build, points", CASES.values(), ids=CASES.keys())
def test_apply_agrees_with_the_literal_normal_form_on_every_point(build, points):
    iso = build()
    pts = points()
    assert len(pts) > 1
    for x in pts:
        got, want = iso.apply(x), _literal(iso, x)
        assert got == want and got._raw_values() == want._raw_values()
        assert all(type(c) is Scalar and c.field is iso.field for c in got.coords)
    for x in pts:   # a second pass reads the kept plan
        assert iso.apply(x) == _literal(iso, x)


@pytest.mark.parametrize("copier", ["pickle", "deepcopy", "copy"])
@pytest.mark.parametrize("name", ["gf:5-mixed", "padic:3-mixed", "padic:3-affine-seed1"])
def test_an_applied_isometry_equals_an_unapplied_one(name, copier):
    copy_of = {"pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
               "deepcopy": copy.deepcopy, "copy": copy.copy}[copier]
    build, points = CASES[name]
    applied, fresh = build(), build()
    pts = points()
    images = [applied.apply(x) for x in pts]
    assert applied == fresh and hash(applied) == hash(fresh)
    assert repr(applied) == repr(fresh)
    assert applied.to_json_dict() == fresh.to_json_dict()
    for value in (applied, fresh):
        back = copy_of(value)
        assert back == applied and hash(back) == hash(applied) and repr(back) == repr(applied)
        assert [back.apply(x) for x in pts] == images


def test_apply_outside_a_partial_table_names_the_value_after_the_plan_is_built():
    iso = CASES["padic:3-mixed"][0]()
    inside = Vector.make(Q3, [0, 1, "1/3"])
    assert iso.apply(inside) == _literal(iso, inside)
    with pytest.raises(OutsideDomainError, match="^value 2/3 not in isometry table$"):
        iso.apply(Vector.make(Q3, [0, 1, "2/3"]))


def test_apply_does_no_scalar_arithmetic_once_the_plan_is_built(monkeypatch):
    table = _seeded(F5, 3, 6)
    affine = _seeded(Q3, 3, 7)
    assert {type(tau) for tau in table.taus} == {TableMap}
    assert {type(tau) for tau in affine.taus} == {AffineMap}
    table_points, affine_points = _points(F5, 3), _points(Q3, 3)
    expected = ([_literal(table, x) for x in table_points],
                [_literal(affine, x) for x in affine_points])
    table.apply(table_points[0])
    affine.apply(affine_points[0])

    def refuse(*args):
        raise AssertionError("Scalar arithmetic in apply")
    for name in ("__add__", "__sub__", "__mul__"):
        monkeypatch.setattr(Scalar, name, refuse)
    fresh_table = [Vector(F5, x.coords) for x in table_points]
    fresh_affine = [Vector(Q3, x.coords) for x in affine_points]
    assert [table.apply(x) for x in fresh_table] == expected[0]
    assert [affine.apply(x) for x in fresh_affine] == expected[1]
