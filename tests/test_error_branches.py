"""Each validation branch raises its own error class.

One case per guard, mostly guards no other test reaches.  Only the
exception class is checked, so a guard may reword its message but never
change its kind; the cases in NAMED, which name a value of the wrong
class or a literal past its bound, pin their message as well.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest

from ultranorm import (
    AffineMap,
    AxialIsometry,
    BetweennessReport,
    DimensionMismatchError,
    FieldMismatchError,
    FieldSpec,
    InvalidInputError,
    IsometryReport,
    NormSpec,
    ParseError,
    ProbeMap,
    Scalar,
    TableMap,
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
    group_closure_check,
    is_metrically_between,
    norm,
    segment,
    sphere_shift_map,
    uniqueness_check,
    valuation,
    valuation_profile,
    verify_isometry,
)
from ultranorm.sampling import grid_from_values, norm_axiom_samples, random_scalar, random_vector

Q3 = FieldSpec.parse("padic:3")
Q5 = FieldSpec.parse("padic:5")
F2 = FieldSpec.parse("gf:2")
F3 = FieldSpec.parse("gf:3")
F5 = FieldSpec.parse("gf:5")


def v(field, *coords):
    return Vector.make(field, coords)


def s(field, value):
    return Scalar(field, value)


CASES = {
    "probe-lengths": (InvalidInputError, lambda: ProbeMap((v(Q3, 0),), ())),
    "probe-fields": (FieldMismatchError, lambda: ProbeMap((v(Q3, 0),), (v(Q5, 0),))),
    "probe-dims": (DimensionMismatchError, lambda: ProbeMap((v(Q3, 0),), (v(Q3, 0, 0),))),
    "probe-complete-padic": (InvalidInputError,
                             lambda: ProbeMap((v(Q3, 0),), (v(Q3, 0),), complete=True)),
    "probe-complete-count": (InvalidInputError,
                             lambda: ProbeMap((v(F2, 0),), (v(F2, 0),), complete=True)),
    "probe-json-pair-dim": (ParseError, lambda: ProbeMap.from_json(
        {"field": "padic:3", "n": 2, "pairs": [[["1"], ["1"]]]})),
    "axial-lengths": (DimensionMismatchError,
                      lambda: AxialIsometry((0,), (), v(Q3, 0))),
    "axial-tau-field": (FieldMismatchError, lambda: AxialIsometry(
        (0,), (AffineMap(Q5.one, Q5.zero),), v(Q3, 0))),
    "compose-field": (FieldMismatchError, lambda: AxialIsometry.identity(Q3, 1).compose(
        AxialIsometry.identity(Q5, 1))),
    "compose-dim": (DimensionMismatchError, lambda: AxialIsometry.identity(Q3, 1).compose(
        AxialIsometry.identity(Q3, 2))),
    "affine-field": (FieldMismatchError, lambda: AffineMap(Q3.one, Q5.zero)),
    "table-empty": (InvalidInputError, lambda: TableMap(())),
    "table-fields": (FieldMismatchError,
                     lambda: TableMap(((s(Q3, 0), s(Q3, 0)), (s(Q3, 1), s(Q5, 1))))),
    "table-duplicate": (InvalidInputError,
                        lambda: TableMap(((s(Q3, 1), s(Q3, 1)), (s(Q3, 1), s(Q3, 2))))),
    "table-residues-rational": (InvalidInputError,
                                lambda: TableMap.from_residues(Q3, [0, 1, 2])),
    "vector-empty": (InvalidInputError, lambda: Vector(Q3, ())),
    "vector-foreign-coord": (FieldMismatchError, lambda: Vector(Q3, (s(Q5, 1),))),
    "vector-scale-field": (FieldMismatchError, lambda: v(Q3, 1, 2).scale(s(Q5, 2))),
    "norm-kind": (InvalidInputError, lambda: NormSpec("taxi")),
    "norm-wsup-no-weights": (InvalidInputError, lambda: NormSpec("wsup")),
    "norm-weights-positive": (InvalidInputError,
                              lambda: NormSpec.weighted_sup([Fraction(1), Fraction(0)])),
    "norm-takes-no-weights": (InvalidInputError, lambda: NormSpec("one", (Fraction(1),))),
    "field-kind": (InvalidInputError, lambda: FieldSpec("real", 3)),
    "field-trivial-modulus": (InvalidInputError, lambda: FieldSpec("trivial", 3)),
    "field-tag-type": (ParseError, lambda: FieldSpec.parse(3)),
    "field-scalar-foreign": (FieldMismatchError, lambda: Q3.scalar(s(Q5, 1))),
    "field-elements-infinite": (InvalidInputError, lambda: Q3.elements()),
    "scalar-check-type": (TypeError, lambda: s(Q3, 1) + 1),
    "table-apply-int": (TypeError, lambda: TableMap.from_residues(F3, [0, 2, 1]).apply(3)),
    "uniqueness-dim": (DimensionMismatchError,
                       lambda: uniqueness_check(v(Q3, 0, 0, 0), v(Q3, 1, 1, 1), 0, 0)),
    # a value of the wrong class is refused at construction, not later as a bug
    "table-int-values": (InvalidInputError, lambda: TableMap(((0, 1), (1, 0)))),
    "table-later-int-value": (InvalidInputError,
                              lambda: TableMap(((s(Q3, 0), s(Q3, 0)), (s(Q3, 1), 1)))),
    "axial-str-tau": (InvalidInputError,
                      lambda: AxialIsometry((0,), ("x",), Vector.zero(F2, 1))),
    "axial-vector-tau": (InvalidInputError,
                         lambda: AxialIsometry((0,), (v(F2, 0),), Vector.zero(F2, 1))),
    "axial-scalar-translation": (InvalidInputError, lambda: AxialIsometry(
        (0,), (AffineMap(F2.one, F2.zero),), F2.zero)),
    "vector-int-coords": (InvalidInputError, lambda: Vector(Q3, (1, 2))),
    "vector-vector-coord": (InvalidInputError, lambda: Vector(Q3, (Vector.zero(Q3, 1),))),
    "probe-int-points": (InvalidInputError, lambda: ProbeMap((1,), (2,))),
    "probe-isometry-points": (InvalidInputError, lambda: ProbeMap(
        (AxialIsometry.identity(Q3, 1),), (AxialIsometry.identity(Q3, 1),))),
    "probe-later-int-image": (InvalidInputError, lambda: ProbeMap((v(Q3, 0),), (0,))),
    "affine-int-slope": (InvalidInputError, lambda: AffineMap(1, Q3.zero)),
    "affine-int-offset": (InvalidInputError, lambda: AffineMap(Q3.one, 0)),
    # a field or operand of the wrong class is refused, not an AttributeError
    "scalar-str-field": (InvalidInputError, lambda: Scalar("gf:3", 1)),
    "vector-str-field": (InvalidInputError, lambda: Vector("gf:3", (F3.one,))),
    "segment-int-endpoint": (InvalidInputError, lambda: segment(v(F3, 1, 2), 3)),
    "distance-int-operand": (InvalidInputError,
                             lambda: distance(v(F3, 1, 2), 3, NormSpec.one())),
    "scalar-norm-field": (InvalidInputError, lambda: Scalar(NormSpec.one(), 1)),
    # the first operand is checked as well as the second
    "distance-int-first": (InvalidInputError, lambda: distance(3, v(F3, 1), NormSpec.one())),
    "segment-int-first": (InvalidInputError, lambda: segment(3, v(F3, 1))),
    "coordinate-between-int-first": (InvalidInputError,
                                     lambda: coordinate_between(3, v(F3, 1), v(F3, 1))),
    "between-int-first": (InvalidInputError,
                          lambda: is_metrically_between(3, v(F3, 1), v(F3, 1))),
    "differing-positions-int-first": (InvalidInputError,
                                      lambda: differing_positions(3, v(F3, 1))),
    "norm-int-vector": (InvalidInputError, lambda: norm(3, NormSpec.one())),
    "uniqueness-int-first": (InvalidInputError, lambda: uniqueness_check(3, v(Q3, 0, 0), 0, 0)),
    "uniqueness-int-second": (InvalidInputError,
                              lambda: uniqueness_check(v(Q3, 0, 0), 3, 0, 0)),
    "uniqueness-dim-2-vs-3": (DimensionMismatchError,
                              lambda: uniqueness_check(v(Q3, 0, 0), v(Q3, 1, 1, 1), 0, 0)),
    "valuation-int": (InvalidInputError, lambda: valuation(3)),
    "valuation-profile-int": (InvalidInputError, lambda: valuation_profile(3)),
    # a norm or probe map argument of the wrong class, not an AttributeError
    "norm-str-spec": (InvalidInputError, lambda: norm(v(F3, 1, 2), "one")),
    "distance-none-spec": (InvalidInputError, lambda: distance(v(F3, 1), v(F3, 2), None)),
    "verify-str-spec": (InvalidInputError, lambda: verify_isometry(
        ProbeMap((v(F3, 0),), (v(F3, 0),)), "sup")),
    "check-axioms-str-spec": (InvalidInputError, lambda: check_norm_axioms(
        "one", F3, [(v(F3, 1), v(F3, 2), F3.one)])),
    "enumerate-str-spec": (InvalidInputError, lambda: enumerate_isometries(3, 1, "one")),
    "sphere-shift-str-spec": (InvalidInputError,
                              lambda: sphere_shift_map(v(Q3, 3), v(Q3, 1), [], "sup")),
    "decompose-int-map": (InvalidInputError, lambda: decompose(3)),
    "verify-int-map": (InvalidInputError, lambda: verify_isometry(3, NormSpec.one())),
    # a lookup refuses a foreign operand through _check, before the lookup
    "table-apply-foreign-field": (FieldMismatchError,
                                  lambda: TableMap.from_residues(F3, [0, 2, 1]).apply(F5.one)),
    # an axiom sweep checks its arguments before any sample, and every sample's field
    "check-axioms-empty-str-spec": (InvalidInputError,
                                    lambda: check_norm_axioms("one", "gf:3", [])),
    "check-axioms-str-field": (InvalidInputError,
                               lambda: check_norm_axioms(NormSpec.one(), "gf:3", [])),
    "check-valuation-str-field": (InvalidInputError, lambda: check_valuation_axioms("gf:3", [])),
    "check-valuation-nonsense-field": (InvalidInputError, lambda: check_valuation_axioms(
        "nonsense", [(s(Q3, 1), s(Q3, 3))])),
    "check-axioms-foreign-samples": (FieldMismatchError, lambda: check_norm_axioms(
        NormSpec.one(), F5, [(v(Q3, 1, 3), v(Q3, 2, 9), s(Q3, 3))])),
    "check-axioms-foreign-lam": (FieldMismatchError, lambda: check_norm_axioms(
        NormSpec.one(), F3, [(v(F3, 1), v(F3, 2), F5.one)])),
    "check-axioms-int-first": (InvalidInputError, lambda: check_norm_axioms(
        NormSpec.one(), F3, [(3, v(F3, 2), F3.one)])),
    "check-valuation-foreign-samples": (FieldMismatchError, lambda: check_valuation_axioms(
        F5, [(s(Q3, 1), s(Q3, 3))])),
    # a field argument of the wrong class, not an AttributeError
    "enumerate-space-str-field": (InvalidInputError, lambda: enumerate_space("gf:3", 2)),
    "table-residues-str-field": (InvalidInputError,
                                 lambda: TableMap.from_residues("gf:3", [0, 2, 1])),
    "table-pairs-str-field": (InvalidInputError, lambda: TableMap.from_pairs("gf:3", [(0, 1)])),
    # an object argument of the wrong class, not an AttributeError
    "closure-str-result": (InvalidInputError, lambda: group_closure_check("x")),
    "probe-from-int-isometry": (InvalidInputError,
                                lambda: ProbeMap.from_isometry(3, [v(F3, 0)])),
    "compose-int-isometry": (InvalidInputError,
                             lambda: AxialIsometry.identity(F3, 1).compose(3)),
    "sphere-shift-int-first": (InvalidInputError,
                               lambda: sphere_shift_map(3, v(Q3, 1), [v(Q3, 0)])),
    # a flag or cap of the wrong type
    "enumerate-int-centred": (InvalidInputError,
                              lambda: enumerate_isometries(2, 1, centred=1)),
    "segment-str-cap": (InvalidInputError, lambda: segment(v(F3, 1, 2), v(F3, 2, 1), "5")),
    "enumerate-str-cap": (InvalidInputError, lambda: enumerate_isometries(2, 1, cap="9")),
    "enumerate-str-q": (InvalidInputError, lambda: enumerate_isometries("3", 1)),
    "betweenness-str-n": (InvalidInputError, lambda: exhaustive_betweenness_check(2, "1")),
    "table-residues-str-images": (InvalidInputError,
                                  lambda: TableMap.from_residues(F3, "012")),
    # the CLI's draws and the identity map check their field
    "random-scalar-str-field": (InvalidInputError,
                                lambda: random_scalar("gf:3", random.Random(1))),
    "random-vector-str-field": (InvalidInputError,
                                lambda: random_vector("gf:3", 2, random.Random(1))),
    "axiom-samples-str-field": (InvalidInputError,
                                lambda: norm_axiom_samples("gf:3", 2, 3, random.Random(1))),
    # no draw reaches random_scalar's own check: zero samples, or zero coordinates
    "axiom-samples-str-field-no-samples": (
        InvalidInputError, lambda: norm_axiom_samples("x", 2, 0, random.Random(1))),
    "random-vector-str-field-zero-dim": (
        InvalidInputError, lambda: random_vector("x", 0, random.Random(1))),
    "grid-str-field": (InvalidInputError, lambda: grid_from_values("gf:3", 2, ["0", "1"])),
    "identity-str-field": (InvalidInputError, lambda: AxialIsometry.identity("gf:3", 1)),
    # a size is exactly an int, so True is refused as EnumerationTooLargeError.check refuses it
    "zero-str-dim": (InvalidInputError, lambda: Vector.zero(F3, "2")),
    "zero-bool-dim": (InvalidInputError, lambda: Vector.zero(F3, True)),
    "identity-str-dim": (InvalidInputError, lambda: AxialIsometry.identity(F3, "1")),
    "identity-bool-dim": (InvalidInputError, lambda: AxialIsometry.identity(F3, True)),
    "count-str-q": (InvalidInputError, lambda: axial_isometry_count("3", 1)),
    "count-bool-q": (InvalidInputError, lambda: axial_isometry_count(True, 1)),
    "count-float-n": (InvalidInputError, lambda: axial_isometry_count(3, 1.5)),
    "count-int-centred": (InvalidInputError, lambda: axial_isometry_count(3, 1, 1)),
    "count-negative-q": (InvalidInputError, lambda: axial_isometry_count(-1, 1)),
    "count-zero-n": (InvalidInputError, lambda: axial_isometry_count(3, 0)),
    "uniqueness-str-d1": (InvalidInputError, lambda: uniqueness_check(
        v(Q3, 0, 0), v(Q3, 1, 1), "1", 0)),
    "uniqueness-bool-d2": (InvalidInputError, lambda: uniqueness_check(
        v(Q3, 0, 0), v(Q3, 1, 1), Fraction(1), True)),
    # a probe map on a kept domain checks its images as the constructor does
    "with-images-list": (InvalidInputError, lambda: _identity_f3()._with_images([])),
    "with-images-short": (InvalidInputError,
                          lambda: _identity_f3()._with_images((v(F3, 0),))),
    "with-images-foreign-field": (FieldMismatchError, lambda: _identity_f3()._with_images(
        (v(F5, 0),) * 3)),
    "with-images-wrong-dim": (DimensionMismatchError, lambda: _identity_f3()._with_images(
        (v(F3, 0, 0),) * 3)),
    "with-images-int-point": (InvalidInputError,
                              lambda: _identity_f3()._with_images((0, 1, 2))),
    # a field, list, count or random source of the wrong class, not a bare Python error
    "grid-str-values": (InvalidInputError, lambda: grid_from_values(F3, 2, "012")),
    "zero-str-field": (InvalidInputError, lambda: Vector.zero("gf:3", 2)),
    "make-str-field": (InvalidInputError, lambda: Vector.make("gf:3", [1])),
    "table-pairs-str-pairs": (InvalidInputError, lambda: TableMap.from_pairs(F3, "01")),
    "table-pairs-str-entry": (InvalidInputError, lambda: TableMap.from_pairs(F3, ["01"])),
    "table-pairs-triple-entry": (InvalidInputError,
                                 lambda: TableMap.from_pairs(F3, [(0, 1, 2)])),
    "random-vector-str-dim": (InvalidInputError,
                              lambda: random_vector(F3, "2", random.Random(1))),
    "axiom-samples-str-count": (InvalidInputError,
                                lambda: norm_axiom_samples(F3, 2, "3", random.Random(1))),
    "random-scalar-int-rng": (InvalidInputError, lambda: random_scalar(F3, 3)),
    "parse-int-text": (InvalidInputError, lambda: Vector.parse(F3, 5)),
    "probe-from-int-points": (InvalidInputError, lambda: ProbeMap.from_isometry(
        AxialIsometry.identity(F3, 1), 5)),
    # a dimension that is not exactly an int, and probes that are not a list or tuple
    "enumerate-space-bool-dim": (InvalidInputError, lambda: enumerate_space(F3, True)),
    "enumerate-space-str-dim": (InvalidInputError, lambda: enumerate_space(F3, "2")),
    "enumerate-space-float-dim": (InvalidInputError, lambda: enumerate_space(F3, 2.0)),
    "sphere-shift-int-probes": (InvalidInputError,
                                lambda: sphere_shift_map(v(Q3, 3), v(Q3, 1), 5)),
    # vector values and axiom samples that are not a list or tuple, and samples of the wrong size
    "make-str-values": (InvalidInputError, lambda: Vector.make(F5, "12")),
    "make-int-values": (InvalidInputError, lambda: Vector.make(F3, 5)),
    "check-valuation-int-samples": (InvalidInputError, lambda: check_valuation_axioms(F3, 5)),
    "check-axioms-int-samples": (InvalidInputError,
                                 lambda: check_norm_axioms(NormSpec.one(), F3, 5)),
    "check-valuation-int-sample": (InvalidInputError, lambda: check_valuation_axioms(F3, [3])),
    "check-valuation-short-sample": (InvalidInputError,
                                     lambda: check_valuation_axioms(F3, [(F3.one,)])),
    "check-axioms-int-sample": (InvalidInputError,
                                lambda: check_norm_axioms(NormSpec.one(), F3, [3])),
    "check-axioms-short-sample": (InvalidInputError, lambda: check_norm_axioms(
        NormSpec.one(), F3, [(v(F3, 1), v(F3, 2))])),
    # a scale factor, weight list or dimension of the wrong class, refused at entry
    "vector-scale-int": (InvalidInputError, lambda: Vector.make(F3, [1]).scale(2)),
    "check-axioms-int-lam": (InvalidInputError, lambda: check_norm_axioms(
        NormSpec.one(), F3, [(v(F3, 1), v(F3, 2), 2)])),
    "wsup-int-weights": (InvalidInputError, lambda: NormSpec.weighted_sup(3)),
    "norm-wsup-int-weights": (InvalidInputError, lambda: NormSpec("wsup", 3)),
    "betweenness-none-n": (InvalidInputError, lambda: exhaustive_betweenness_check(2, None)),
    "betweenness-report-str-q": (InvalidInputError, lambda: BetweennessReport("x", 1)),
    "isometry-report-str-probes": (InvalidInputError, lambda: IsometryReport("one", "x")),
    # a decimal exponent past the digit limit is refused before Fraction builds the value
    "parse-huge-exponent": (ParseError, lambda: Vector.parse(Q5, "1e300000")),
    "parse-huge-negative-exponent": (ParseError, lambda: Vector.parse(Q5, "1e-300000")),
    "norm-parse-huge-weight-exponent": (ParseError, lambda: NormSpec.parse("wsup:1e300000")),
}


def _identity_f3() -> ProbeMap:
    points = tuple(enumerate_space(F3, 1))
    return ProbeMap(points, points, complete=True)


@pytest.mark.parametrize("expected, build", CASES.values(), ids=CASES.keys())
def test_guard_raises_its_error_class(expected, build):
    with pytest.raises(expected) as info:
        build()
    assert type(info.value) is expected


NAMED = {key: "vector operand must be a Vector, got int"
         for key in CASES if key.endswith("-int-first") or key == "norm-int-vector"}
NAMED["scalar-norm-field"] = "scalar field must be a FieldSpec, got NormSpec"
NAMED["uniqueness-int-second"] = NAMED["valuation-profile-int"] = NAMED["uniqueness-int-first"]
NAMED["valuation-int"] = "valuation operand must be a Scalar, got int"
NAMED.update({key: "norm must be a NormSpec, got str" for key in CASES
              if key.endswith("-str-spec")})
NAMED["distance-none-spec"] = "norm must be a NormSpec, got NoneType"
NAMED.update({key: "probe map must be a ProbeMap, got int" for key in CASES
              if key.endswith("-int-map")})
NAMED.update({key: "field must be a FieldSpec, got str" for key in (
    "check-axioms-str-field", "check-valuation-str-field", "check-valuation-nonsense-field",
    "enumerate-space-str-field", "table-residues-str-field", "table-pairs-str-field")})
NAMED["closure-str-result"] = "enumeration result must be an EnumerationResult, got str"
NAMED["probe-from-int-isometry"] = "axial isometry must be an AxialIsometry, got int"
NAMED["compose-int-isometry"] = NAMED["probe-from-int-isometry"]
NAMED["enumerate-int-centred"] = "centred flag must be a bool, got int"
NAMED["segment-str-cap"] = NAMED["enumerate-str-cap"] = "cap must be an int, got str"
NAMED["enumerate-str-q"] = "size base must be an int, got str"
NAMED["betweenness-str-n"] = "dimension must be an int, got str"
NAMED["table-residues-str-images"] = "residue images must be a list or tuple, got str"
NAMED.update({key: "field must be a FieldSpec, got str" for key in (
    "random-scalar-str-field", "random-vector-str-field", "axiom-samples-str-field",
    "axiom-samples-str-field-no-samples", "random-vector-str-field-zero-dim",
    "grid-str-field", "identity-str-field")})
NAMED["zero-str-dim"] = NAMED["identity-str-dim"] = "dimension must be an int, got str"
NAMED["zero-bool-dim"] = NAMED["identity-bool-dim"] = "dimension must be an int, got bool"
NAMED["count-str-q"] = "field size must be an int, got str"
NAMED["count-bool-q"] = "field size must be an int, got bool"
NAMED["count-float-n"] = "dimension must be an int, got float"
NAMED["count-int-centred"] = NAMED["enumerate-int-centred"]
NAMED["count-negative-q"] = "q and n must be at least 1, got q=-1, n=1"
NAMED["count-zero-n"] = "q and n must be at least 1, got q=3, n=0"
NAMED["uniqueness-str-d1"] = "distance d1 must be an int or Fraction, got str"
NAMED["uniqueness-bool-d2"] = "distance d2 must be an int or Fraction, got bool"
NAMED["with-images-list"] = "probe map images must be a tuple, got list"
NAMED["with-images-short"] = "3 domain points vs 1 images"
NAMED["with-images-int-point"] = "probe map point must be a Vector, got int"
NAMED["grid-str-values"] = "grid values must be a list or tuple, got str"
NAMED["zero-str-field"] = NAMED["make-str-field"] = "vector field must be a FieldSpec, got str"
NAMED["table-pairs-str-pairs"] = "table pairs must be a list or tuple, got str"
NAMED["table-pairs-str-entry"] = "table entry must be a list or tuple, got str"
NAMED["table-pairs-triple-entry"] = "table entry must be a pair, got 3 items"
NAMED["random-vector-str-dim"] = "dimension must be an int, got str"
NAMED["axiom-samples-str-count"] = "sample count must be an int, got str"
NAMED["random-scalar-int-rng"] = "rng must be a random.Random, got int"
NAMED["parse-int-text"] = "vector literal must be a str, got int"
NAMED["probe-from-int-points"] = "probe points must be a list or tuple, got int"
NAMED["enumerate-space-bool-dim"] = NAMED["zero-bool-dim"]
NAMED["enumerate-space-str-dim"] = NAMED["zero-str-dim"]
NAMED["enumerate-space-float-dim"] = "dimension must be an int, got float"
NAMED["sphere-shift-int-probes"] = NAMED["probe-from-int-points"]
NAMED["make-str-values"] = "vector values must be a list or tuple, got str"
NAMED["make-int-values"] = "vector values must be a list or tuple, got int"
NAMED["check-valuation-int-samples"] = "valuation samples must be a list or tuple, got int"
NAMED["check-axioms-int-samples"] = "norm samples must be a list or tuple, got int"
NAMED["check-valuation-int-sample"] = "valuation sample must be a list or tuple, got int"
NAMED["check-valuation-short-sample"] = "valuation sample must have 2 items, got 1"
NAMED["check-axioms-int-sample"] = "norm sample must be a list or tuple, got int"
NAMED["check-axioms-short-sample"] = "norm sample must have 3 items, got 2"
NAMED["affine-int-slope"] = "affine slope must be a Scalar, got int"
NAMED["affine-int-offset"] = "affine offset must be a Scalar, got int"
NAMED["vector-scale-int"] = "scale factor must be a Scalar, got int"
NAMED["check-axioms-int-lam"] = NAMED["vector-scale-int"]
NAMED["wsup-int-weights"] = "weights must be a list or tuple, got int"
NAMED["norm-wsup-int-weights"] = NAMED["wsup-int-weights"]
NAMED["betweenness-none-n"] = "dimension must be an int, got NoneType"
NAMED["betweenness-report-str-q"] = "field size must be an int, got str"
NAMED["isometry-report-str-probes"] = "probe count must be an int, got str"
_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
NAMED.update({key: f"exponent of {token!r} is past the {_LIMIT}-digit limit"
              for key, token in (("parse-huge-exponent", "1e300000"),
                                 ("parse-huge-negative-exponent", "1e-300000"),
                                 ("norm-parse-huge-weight-exponent", "1e300000"))})


@pytest.mark.parametrize("key", NAMED)
def test_a_value_of_the_wrong_class_is_named(key):
    with pytest.raises(CASES[key][0]) as info:
        CASES[key][1]()
    assert str(info.value) == NAMED[key]


def test_norm_and_distance_name_a_vector_operand_before_the_norm():
    for call in (lambda: norm(3, "one"), lambda: distance(v(F3, 1), 3, "one")):
        with pytest.raises(InvalidInputError, match="^vector operand must be a Vector, got int$"):
            call()
    with pytest.raises(FieldMismatchError, match="^mixing gf:3 with gf:5$"):
        distance(v(F3, 1), v(F5, 1), None)


def test_uniqueness_check_names_its_dimension_before_the_pair_mismatch():
    with pytest.raises(DimensionMismatchError) as info:
        CASES["uniqueness-dim-2-vs-3"][1]()
    assert str(info.value) == "uniqueness check is for dimension 2"
