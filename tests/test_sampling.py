from __future__ import annotations

import random

import pytest

from ultranorm import FieldSpec, valuation
from ultranorm.sampling import grid_from_values, norm_axiom_samples, random_scalar, random_vector

from gen import probe_grid, random_axial_isometry

Q3 = FieldSpec.parse("padic:3")
F5 = FieldSpec.parse("gf:5")


def test_random_scalar_flags():
    rng = random.Random(51)
    assert any(random_scalar(Q3, rng).is_zero for _ in range(200))
    assert all(valuation(random_scalar(Q3, rng, unit=True)) == 1 for _ in range(200))
    # valuations actually spread over the value group
    values = {valuation(random_scalar(Q3, rng)) for _ in range(300)}
    assert len(values) >= 5


def test_random_vector_dimensions():
    rng = random.Random(52)
    assert random_vector(F5, 4, rng).dim == 4


def test_random_axial_isometry_centred():
    rng = random.Random(53)
    for field in (Q3, F5):
        for _ in range(20):
            assert random_axial_isometry(field, 3, rng, centred=True).is_centred


def test_probe_grid_shape():
    grid = probe_grid(Q3, 2, 48)
    assert len(grid) == 48
    assert len(set(grid)) == 48
    assert grid[0].coords[0].is_zero and grid[0].coords[1].is_zero
    # axis points for every axis (what decompose reads)
    for axis in range(2):
        axis_pts = [
            p for p in grid
            if not p.coords[axis].is_zero
            and all(c.is_zero for i, c in enumerate(p.coords) if i != axis)
        ]
        assert len(axis_pts) >= 2  # enough for an affine fit
    assert probe_grid(Q3, 2, 48) == grid  # deterministic


def test_probe_grid_over_trivial_rationals():
    # the ladder is 1..13 off the p-adic fields: origin, axis points, then the first shell
    grid = [str(p) for p in probe_grid(FieldSpec.trivial(), 2, 30)]
    axes = [f"{k},0" if i == 0 else f"0,{k}" for k in range(1, 14) for i in range(2)]
    assert grid == ["0,0", *axes, "1,1", "1,2", "2,1"]


def test_probe_grid_limits():
    with pytest.raises(ValueError):
        probe_grid(F5, 2, 10)  # finite fields enumerate exactly instead
    with pytest.raises(ValueError):
        probe_grid(Q3, 1, 10**6)  # more points than the ladder can provide


def test_grid_from_values():
    grid = grid_from_values(Q3, 2, ["0", "1", "1/3"])
    assert len(grid) == 9
    assert len(set(grid)) == 9


def test_norm_axiom_samples_shape():
    rng = random.Random(54)
    triples = norm_axiom_samples(Q3, 2, 50, rng)
    assert len(triples) == 50
    x, y, lam = triples[0]
    assert x.dim == y.dim == 2 and lam.field == Q3
