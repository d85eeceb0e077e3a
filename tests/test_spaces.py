from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ultranorm import (
    DimensionMismatchError,
    FieldMismatchError,
    FieldSpec,
    NormSpec,
    ParseError,
    Vector,
    check_norm_axioms,
    distance,
    enumerate_space,
    norm,
    valuation,
    valuation_profile,
)
from ultranorm.sampling import norm_axiom_samples, random_scalar, random_vector

from gen import assert_like_a_constructed_vector
from naive import hamming, one_norm, padic_abs, sup_norm

Q2 = FieldSpec.parse("padic:2")
Q3 = FieldSpec.parse("padic:3")
Q5 = FieldSpec.parse("padic:5")
F2 = FieldSpec.parse("gf:2")
F3 = FieldSpec.parse("gf:3")
TQ = FieldSpec.parse("trivial:q")

ONE = NormSpec.one()
SUP = NormSpec.sup()


def test_norm_spec_parse():
    assert NormSpec.parse("one") == ONE
    assert NormSpec.parse("sup") == SUP
    wsup = NormSpec.parse("wsup:9,1")
    assert wsup.weights == (Fraction(9), Fraction(1))
    assert str(ONE) == "one" and str(SUP) == "sup" and str(wsup) == "wsup:9,1"
    for bad in ("two", "wsup:", "wsup:0,1", "wsup:-1,2", "wsup:a,b"):
        with pytest.raises(ParseError):
            NormSpec.parse(bad)
    for bad in (5, None):
        with pytest.raises(ParseError, match=str(bad)):
            NormSpec.parse(bad)


def test_one_norm_padic_example():
    v = Vector.parse(Q3, "9,1/3")
    assert norm(v, ONE) == Fraction(28, 9)
    assert norm(v, SUP) == Fraction(3)
    assert norm(v, NormSpec.parse("wsup:9,1")) == Fraction(3)


def test_zero_norm_every_spec():
    z = Vector.zero(Q3, 2)
    for spec in (ONE, SUP, NormSpec.parse("wsup:1/2,7")):
        assert norm(z, spec) == 0


def test_one_norm_is_hamming_over_trivial_and_gf():
    rng = random.Random(3)
    for field in (F2, F3, TQ):
        for _ in range(100):
            x = random_vector(field, 4, rng)
            y = random_vector(field, 4, rng)
            raw_x = tuple(c.value for c in x.coords)
            raw_y = tuple(c.value for c in y.coords)
            assert distance(x, y, ONE) == hamming(raw_x, raw_y)
    assert norm(Vector.parse(F2, "1,1"), ONE) == 2


def test_distance_examples():
    assert distance(Vector.parse(Q3, "1,0"), Vector.parse(Q3, "0,1"), ONE) == 2
    assert distance(Vector.parse(F3, "0,1,2"), Vector.parse(F3, "0,2,2"), ONE) == 1
    x = Vector.parse(Q3, "5,7/3")
    assert distance(x, x, ONE) == 0


def test_norms_match_naive_oracle():
    rng = random.Random(4)
    absval = lambda c: padic_abs(c, 3)
    for _ in range(200):
        v = random_vector(Q3, 3, rng)
        raw = tuple(c.value for c in v.coords)
        assert norm(v, ONE) == one_norm(raw, absval)
        assert norm(v, SUP) == sup_norm(raw, absval)


def test_homogeneity_exact():
    rng = random.Random(5)
    for field in (Q3, Q5, F3, TQ):
        for _ in range(150):
            v = random_vector(field, 3, rng)
            lam = random_scalar(field, rng)
            for spec in (ONE, SUP):
                assert norm(v.scale(lam), spec) == valuation(lam) * norm(v, spec)


def test_sup_is_ultrametric_one_is_not():
    assert SUP.ultrametric
    assert NormSpec.parse("wsup:2,5").ultrametric
    assert not ONE.ultrametric
    # witness that the one-norm is not ultrametric: ||x+y||_1 > max
    x = Vector.parse(Q3, "1,0")
    y = Vector.parse(Q3, "0,1")
    assert norm(x + y, ONE) == 2 > max(norm(x, ONE), norm(y, ONE))


def test_strong_triangle_for_sup_variants():
    rng = random.Random(6)
    wsup = NormSpec.parse("wsup:1/3,5,2")
    for _ in range(200):
        x = random_vector(Q3, 3, rng)
        y = random_vector(Q3, 3, rng)
        for spec in (SUP, wsup):
            assert norm(x + y, spec) <= max(norm(x, spec), norm(y, spec))


def test_absoluteness_equal_profiles_equal_norms():
    rng = random.Random(7)
    wsup = NormSpec.parse("wsup:4,1/7")
    for _ in range(200):
        x = random_vector(Q3, 2, rng)
        # same valuation profile: multiply coordinates by units
        y = Vector(Q3, tuple(c * random_scalar(Q3, rng, unit=True) for c in x.coords))
        assert valuation_profile(x) == valuation_profile(y)
        for spec in (ONE, SUP, wsup):
            assert norm(x, spec) == norm(y, spec)


def test_valuation_profile_values():
    assert valuation_profile(Vector.parse(Q3, "9,1/3,0")) == (
        Fraction(1, 9),
        Fraction(3),
        Fraction(0),
    )


def test_weighted_sup_escapes_value_group():
    # weight 1/2 is not a power of 3, so the unit ball is not a |K*| dilate
    wsup = NormSpec.parse("wsup:1/2,1")
    v = Vector.parse(Q3, "1,0")
    assert norm(v, wsup) == Fraction(1, 2)
    assert all(norm(v, wsup) != Fraction(3) ** k for k in range(-6, 7))


def test_vector_parse_and_json_round_trip():
    v = Vector.parse(Q3, "9,1/3")
    assert v.dim == 2
    with pytest.raises(ParseError):
        Vector.parse(Q3, "9,,3")
    with pytest.raises(ParseError):
        Vector.parse(Q3, "")
    assert Vector.make(Q3, [9, "1/3"]) == v
    for coords in ([0.5, 1], [True]):
        with pytest.raises(ParseError):
            Vector.make(Q3, coords)


def test_vector_arithmetic_and_mismatches():
    x = Vector.parse(Q3, "1,2")
    y = Vector.parse(Q3, "1/3,5")
    assert (x + y).coords[0].value == Fraction(4, 3)
    assert (x - y).coords[1].value == -3
    assert (-x).coords[0].value == -1
    with pytest.raises(FieldMismatchError):
        x + Vector.parse(Q5, "1,2")
    with pytest.raises(DimensionMismatchError):
        x + Vector.parse(Q3, "1,2,3")
    with pytest.raises(DimensionMismatchError):
        distance(x, Vector.parse(Q3, "1,2,3"), ONE)


def test_weighted_sup_dimension_check():
    with pytest.raises(DimensionMismatchError):
        norm(Vector.parse(Q3, "1,2,3"), NormSpec.parse("wsup:1,2"))


def test_enumerate_space_lex_order():
    pts = enumerate_space(F3, 2)
    assert len(pts) == 9
    raw = [tuple(c.value for c in p.coords) for p in pts]
    assert raw == sorted(raw)
    assert raw[0] == (0, 0) and raw[-1] == (2, 2)
    with pytest.raises(ValueError):
        enumerate_space(Q3, 2)


def test_norm_axiom_sweep_clean():
    rng = random.Random(8)
    for field in (Q3, F3, TQ):
        for spec in (ONE, SUP):
            samples = norm_axiom_samples(field, 2, 200, rng)
            report = check_norm_axioms(spec, field, samples)
            assert report.ok, report.to_json_dict()["violations"][:3]
            assert report.checks > 0


def test_one_norm_of_ones_over_padic_2():
    # |1|_2 + |1|_2 = 2 = |1/2|_2; and |2|_2 + |2|_2 = 1, where the sum over
    # the common denominator 2 is itself divisible by p
    ones = Vector.parse(Q2, "1,1")
    assert norm(ones, ONE) == 2 == valuation(Q2.scalar("1/2"))
    assert distance(ones, Vector.zero(Q2, 2), ONE) == 2
    assert distance(Vector.parse(Q2, "2,2"), Vector.zero(Q2, 2), ONE) == 1


@pytest.mark.parametrize("field, x, y, spec, expected", [
    (Q3, "0,9", "1/3,0", "one", Fraction(28, 9)),                      # zero coordinates
    (Q3, "5,1/3", "5,2/3", "one", Fraction(3)),                        # equal coordinates
    (Q3, "1/3,1/3", "2/9,4/3", "one", Fraction(10)),                   # both denominators divisible by p
    (Q3, "1/3,1/3", "2/9,4/3", "sup", Fraction(9)),
    (Q3, f"{3 ** 45},1/{3 ** 41}", "0,0", "one", Fraction(3 ** 86 + 1, 3 ** 45)),
    (Q3, f"{3 ** 45},1/{3 ** 41}", "0,0", "sup", Fraction(3 ** 41)),
    (Q3, f"{3 ** 45},1/{3 ** 41}", "0,0", f"wsup:{3 ** 90},1", Fraction(3 ** 45)),
    (Q5, f"1/{5 ** 42},7", f"2/{5 ** 42},7", "one", Fraction(5 ** 42)),
    (F3, "0,1,2", "0,2,2", "one", Fraction(1)),
    (TQ, "1/3,0", "1/9,0", "sup", Fraction(1)),
    (Q3, "1,2", "1,2", "one", Fraction(0)),
    (Q3, "1,2", "1,2", "wsup:1,2", Fraction(0)),
])
def test_distance_kernel_edges(field, x, y, spec, expected):
    x, y, spec = Vector.parse(field, x), Vector.parse(field, y), NormSpec.parse(spec)
    got = distance(x, y, spec)
    assert type(got) is Fraction and got == expected == distance(y, x, spec)
    assert norm(x - y, spec) == expected


def test_distance_kernel_keeps_its_typed_errors():
    x = Vector.parse(Q3, "1,2,3")
    with pytest.raises(FieldMismatchError):
        distance(x, Vector.parse(Q5, "1,2,3"), ONE)
    with pytest.raises(DimensionMismatchError):
        distance(x, Vector.parse(Q3, "1,2"), SUP)
    with pytest.raises(DimensionMismatchError):
        distance(x, x, NormSpec.parse("wsup:1,2"))  # weight count checked even at x == y
    with pytest.raises(DimensionMismatchError):
        norm(Vector.zero(Q3, 3), NormSpec.parse("wsup:1,2"))


def test_float_and_bool_weights_are_parse_errors():
    for build in (lambda: NormSpec("wsup", (0.5, 1.0)), lambda: NormSpec.weighted_sup([0.1, 1]),
                  lambda: NormSpec.weighted_sup([1, True])):
        with pytest.raises(ParseError, match="not an exact weight"):
            build()
    spec = NormSpec.weighted_sup([1, Fraction(1, 2)])
    assert spec.weights == (1, Fraction(1, 2))
    assert all(type(w) is Fraction for w in spec.weights)
    assert norm(Vector.parse(Q3, "1,1"), spec) == 1
    assert NormSpec.parse("wsup:0.5").weights == (Fraction(1, 2),)


def test_vector_equality_hash_and_immutability():
    v = Vector.parse(Q3, "9,1/3")
    same = Vector.parse(Q3, "9,1/3")
    assert v == same and hash(v) == hash(same) and hash(v) == hash(v)
    assert v != Vector.parse(TQ, "9,1/3") and v != Vector.parse(Q3, "9,1/3,0")
    assert v != v.coords and Vector.parse(F3, "1,2") == Vector.make(F3, [4, -1])
    raw = v._raw_values()   # fills the kept slot
    for name in ("field", "coords", "_raw", "extra"):
        with pytest.raises(AttributeError):
            setattr(v, name, None)
        with pytest.raises(AttributeError):
            delattr(v, name)
    assert v == same and v._raw_values() is raw


@pytest.mark.parametrize("coords", [[F3.scalar(1)], (c for c in (F3.scalar(1),))],
                         ids=["list", "generator"])
def test_vector_refuses_coords_that_are_not_a_tuple(coords):
    from ultranorm import InvalidInputError

    with pytest.raises(InvalidInputError, match="^vector coords must be a tuple, got "):
        Vector(F3, coords)
    assert Vector(F3, (F3.scalar(1),)) == Vector.make(F3, [1])


@pytest.mark.parametrize("left, right", [(F3, FieldSpec.gf(5)), (Q3, TQ)], ids=["gf", "rational"])
def test_vectors_with_equal_raw_values_over_different_fields_differ(left, right):
    x, y = Vector.make(left, [1, 2]), Vector.make(right, [1, 2])
    assert x._raw_values() == y._raw_values()
    assert x != y and hash(x) != hash(y) and len({x, y}) == 2


def test_enumerate_space_shares_the_fields_element_scalars():
    elements = dict(zip((0, 1, 2), F3.elements()))
    for n in (1, 2, 3):
        pts = enumerate_space(F3, n)
        assert len(pts) == 3 ** n
        for p in pts:
            assert all(c is elements[c.value] for c in p.coords)
            assert_like_a_constructed_vector(p, F3)
