"""Every public callable refuses a value of the wrong class as an
`UltranormError`.

VALID holds one small call per callable: everything in `__all__` but the
error classes and the `Magnitude` alias (the reports included), the
constructors and classmethods, `apply`, `compose`, `scale`, the `Scalar`
and `Vector` operators and the four `sampling` draws.  Each call is
replayed with one argument at a time replaced by each of WRONG, unless
the valid argument already has that value's class.  A replay
may return or raise an `UltranormError`; the one other outcome allowed is
`Scalar._check`'s documented "expected Scalar, ..." `TypeError`.
`tests/test_error_branches.py` pins the messages; this module only keeps
the sweep from finding an escape.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import ultranorm
from ultranorm import (
    AffineMap,
    AxialIsometry,
    AxiomReport,
    BetweennessReport,
    EnumerationResult,
    FieldSpec,
    IsometryReport,
    NormSpec,
    ProbeMap,
    Scalar,
    SegmentEnumeration,
    TableMap,
    UltranormError,
    Vector,
    axial_isometry_count,
    check_norm_axioms,
    check_valuation_axioms,
    coordinate_between,
    decompose,
    differing_positions,
    distance,
    enumerate_isometries,
    enumerate_space,
    exhaustive_betweenness_check,
    is_metrically_between,
    minimize_two_point,
    norm,
    segment,
    sphere_shift_map,
    uniqueness_check,
    valuation,
    valuation_profile,
    verify_isometry,
)
from ultranorm.sampling import (grid_from_values, norm_axiom_samples, random_scalar,
                                random_vector)

WRONG = ["x", 3, 1.5, None, [], object(), True]

F2, Q2, ONE = FieldSpec.gf(2), FieldSpec.padic(2), NormSpec.one()
S0, S1 = F2.zero, F2.one
X, Y, Z = Vector.make(F2, [0, 0]), Vector.make(F2, [1, 1]), Vector.make(F2, [1, 0])
POINTS = tuple(enumerate_space(F2, 2))
AFFINE = AffineMap(S1, S1)
TABLE = TableMap.from_residues(F2, [1, 0])
IDENTITY = AxialIsometry.identity(F2, 2)
PROBES = ProbeMap(POINTS, POINTS, complete=True)
ENUMERATION = enumerate_isometries(2, 1)

# (label, callable, positional arguments, keyword arguments)
VALID = [
    ("FieldSpec", FieldSpec, ("gf", 2), {}),
    ("FieldSpec.padic", FieldSpec.padic, (2,), {}),
    ("FieldSpec.gf", FieldSpec.gf, (2,), {}),
    ("FieldSpec.parse", FieldSpec.parse, ("gf:2",), {}),
    ("FieldSpec.scalar", F2.scalar, (1,), {}),
    ("Scalar", Scalar, (F2, 1), {}),
    ("Scalar.__add__", S1.__add__, (S1,), {}),
    ("Scalar.__sub__", S1.__sub__, (S1,), {}),
    ("Scalar.__mul__", S1.__mul__, (S1,), {}),
    ("valuation", valuation, (S1,), {}),
    ("check_valuation_axioms", check_valuation_axioms, (F2, [(S1, S0)]), {}),
    ("Vector", Vector, (F2, (S0, S1)), {}),
    ("Vector.make", Vector.make, (F2, [0, 1]), {}),
    ("Vector.zero", Vector.zero, (F2, 2), {}),
    ("Vector.parse", Vector.parse, (F2, "0,1"), {}),
    ("Vector.scale", Y.scale, (S1,), {}),
    ("Vector.__add__", X.__add__, (Y,), {}),
    ("Vector.__sub__", X.__sub__, (Y,), {}),
    ("NormSpec", NormSpec, ("wsup", (Fraction(1), Fraction(2))), {}),
    ("NormSpec.weighted_sup", NormSpec.weighted_sup, ([1, 2],), {}),
    ("NormSpec.parse", NormSpec.parse, ("one",), {}),
    ("norm", norm, (Y, ONE), {}),
    ("distance", distance, (X, Y, ONE), {}),
    ("valuation_profile", valuation_profile, (Y,), {}),
    ("enumerate_space", enumerate_space, (F2, 2), {}),
    ("check_norm_axioms", check_norm_axioms, (ONE, F2, [(X, Y, S1)]), {}),
    ("coordinate_between", coordinate_between, (X, Z, Y), {}),
    ("is_metrically_between", is_metrically_between, (X, Z, Y), {}),
    ("differing_positions", differing_positions, (X, Y), {}),
    ("segment", segment, (X, Y), {"cap": 8}),
    ("minimize_two_point", minimize_two_point, (X, Y), {"cap": 8}),
    ("uniqueness_check", uniqueness_check, (X, Y, Fraction(1), Fraction(1)), {}),
    ("AffineMap", AffineMap, (S1, S1), {}),
    ("AffineMap.apply", AFFINE.apply, (S0,), {}),
    ("TableMap", TableMap, (((S0, S1), (S1, S0)),), {}),
    ("TableMap.from_residues", TableMap.from_residues, (F2, [1, 0]), {}),
    ("TableMap.from_pairs", TableMap.from_pairs, (F2, [(0, 1), (1, 0)]), {}),
    ("TableMap.apply", TABLE.apply, (S0,), {}),
    ("AxialIsometry", AxialIsometry, ((1, 0), (TABLE, AFFINE), Y), {}),
    ("AxialIsometry.identity", AxialIsometry.identity, (F2, 2), {}),
    ("AxialIsometry.apply", IDENTITY.apply, (Y,), {}),
    ("AxialIsometry.compose", IDENTITY.compose, (IDENTITY,), {}),
    ("ProbeMap", ProbeMap, (POINTS, POINTS), {"complete": True}),
    ("ProbeMap.from_isometry", ProbeMap.from_isometry, (IDENTITY, POINTS), {"complete": True}),
    ("ProbeMap.from_json", ProbeMap.from_json, (PROBES.to_json_dict(),), {}),
    ("verify_isometry", verify_isometry, (PROBES, ONE), {}),
    ("decompose", decompose, (PROBES,), {}),
    ("sphere_shift_map", sphere_shift_map,
     (Vector.make(Q2, [2]), Vector.make(Q2, [1]), [Vector.make(Q2, [0])]),
     {"spec": NormSpec.sup()}),
    ("axial_isometry_count", axial_isometry_count, (2, 2), {"centred": False}),
    ("enumerate_isometries", enumerate_isometries, (2, 1),
     {"spec": ONE, "centred": False, "cap": 4}),
    ("exhaustive_betweenness_check", exhaustive_betweenness_check, (2, 1), {"cap": 64}),
    ("AxiomReport", AxiomReport, ("gf:2",), {}),
    ("SegmentEnumeration", SegmentEnumeration, (X, Y, 2, POINTS), {}),
    ("IsometryReport", IsometryReport, ("one", 2), {}),
    ("EnumerationResult", EnumerationResult,
     (2, 1, ONE, False, ENUMERATION.points, ENUMERATION.isometries, 2, 2), {}),
    ("BetweennessReport", BetweennessReport, (2, 1), {}),
    ("random_scalar", random_scalar, (F2, random.Random(1)), {"unit": False}),
    ("random_vector", random_vector, (F2, 2, random.Random(1)), {}),
    ("norm_axiom_samples", norm_axiom_samples, (F2, 2, 2, random.Random(1)), {}),
    ("grid_from_values", grid_from_values, (F2, 2, ["0", "1"]), {}),
]


def _replays(args: tuple, kwargs: dict):
    """(argument, value, args, kwargs), one argument replaced by a value of another class."""
    for i, valid in enumerate(args):
        for wrong in WRONG:
            if type(wrong) is not type(valid):
                yield i, wrong, args[:i] + (wrong,) + args[i + 1:], kwargs
    for key, valid in kwargs.items():
        for wrong in WRONG:
            if type(wrong) is not type(valid):
                yield key, wrong, args, {**kwargs, key: wrong}


def test_every_public_callable_is_swept():
    public = {name for name in ultranorm.__all__ if not name.endswith("Error")}
    assert public - {"Magnitude"} <= {label.partition(".")[0] for label, *_ in VALID}


@pytest.mark.parametrize("call, args, kwargs", [entry[1:] for entry in VALID],
                         ids=[entry[0] for entry in VALID])
def test_a_value_of_the_wrong_class_is_refused(call, args, kwargs):
    call(*args, **kwargs)   # the valid call itself returns
    escapes = []
    for where, wrong, replayed, replayed_kwargs in _replays(args, kwargs):
        try:
            call(*replayed, **replayed_kwargs)
        except UltranormError:
            pass
        except Exception as exc:
            if not (type(exc) is TypeError and str(exc).startswith("expected Scalar, ")):
                escapes.append(f"argument {where} = {wrong!r}: {type(exc).__name__}: {exc}")
    assert not escapes, "\n".join(escapes)
