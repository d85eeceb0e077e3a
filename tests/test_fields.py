from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from ultranorm import FieldSpec, ParseError, Scalar, check_valuation_axioms, valuation
from ultranorm.sampling import random_scalar

from naive import padic_abs, trivial_abs

Q3 = FieldSpec.parse("padic:3")
Q5 = FieldSpec.parse("padic:5")
F5 = FieldSpec.parse("gf:5")
TQ = FieldSpec.parse("trivial:q")


def test_parse_round_trip():
    for text in ("padic:3", "gf:5", "trivial:q"):
        assert str(FieldSpec.parse(text)) == text


def test_parse_rejects_bad_specs():
    for text in ("padic:4", "padic:1", "gf:6", "padic", "trivial:7", "euclid:3", "gf:x", ""):
        with pytest.raises(ParseError):
            FieldSpec.parse(text)


def test_padic_valuation_known_values():
    # |p| = 1/p normalization
    assert valuation(Q3.scalar(3)) == Fraction(1, 3)
    assert valuation(Q3.scalar(9)) == Fraction(1, 9)
    assert valuation(Q3.scalar(Fraction(1, 3))) == 3
    assert valuation(Q3.scalar(Fraction(10, 3))) == 3
    assert valuation(Q3.scalar(Fraction(1, 9))) == 9
    assert valuation(Q3.scalar(2)) == 1
    assert valuation(Q3.scalar(0)) == 0
    assert valuation(Q5.scalar(Fraction(50, 3))) == Fraction(1, 25)


def test_padic_valuation_matches_naive_oracle():
    rng = random.Random(101)
    for _ in range(300):
        num = rng.randint(-200, 200)
        den = rng.randint(1, 200)
        x = Fraction(num, den)
        for field in (Q3, Q5):
            assert valuation(field.scalar(x)) == padic_abs(x, field.prime)


def test_trivial_and_finite_valuations():
    assert valuation(TQ.scalar(Fraction(22, 7))) == 1
    assert valuation(TQ.scalar(0)) == 0
    for r in range(5):
        expected = trivial_abs(r)
        assert valuation(F5.scalar(r)) == expected


def test_gf_arithmetic_is_mod_q():
    a = F5.scalar(3)
    b = F5.scalar(4)
    assert (a + b).value == 2
    assert (a * b).value == 2
    assert (a - b).value == 4
    assert (-a).value == 2
    assert F5.scalar(12).value == 2
    assert a.inverse().value == 2  # 3 * 2 = 6 = 1 mod 5


def test_rational_arithmetic_is_exact():
    a = Q3.scalar(Fraction(1, 3))
    b = Q3.scalar(Fraction(1, 6))
    assert (a + b).value == Fraction(1, 2)
    assert (a * b).value == Fraction(1, 18)
    assert a.inverse().value == 3


def test_zero_has_no_inverse():
    for field in (Q3, F5, TQ):
        with pytest.raises(ZeroDivisionError):
            field.zero.inverse()


def test_field_mismatch_rejected():
    from ultranorm import FieldMismatchError

    with pytest.raises(FieldMismatchError):
        Q3.scalar(1) + Q5.scalar(1)


def test_scalar_coercion_from_strings():
    assert Q3.scalar("10/3").value == Fraction(10, 3)
    assert F5.scalar("7").value == 2
    with pytest.raises(ParseError):
        Q3.scalar("x/3")
    with pytest.raises(ParseError):
        F5.scalar("1/2")  # no slash notation in a prime field


def test_scalar_rejects_binary_floats():
    for field, value in ((Q3, 0.1), (F5, 2.5), (F5, 2.0)):
        with pytest.raises(ParseError, match=repr(value)):
            field.scalar(value)


def test_scalar_constructor_normalises():
    assert Scalar(F5, 7) == F5.scalar(2)
    assert hash(Scalar(F5, 7)) == hash(F5.scalar(2))
    assert Scalar(F5, 7).value == 2 and Scalar(F5, -1).value == 4
    assert Scalar(F5, Fraction(12)).value == 2  # an integral Fraction is a residue
    assert Scalar(Q3, 3) == Q3.scalar(Fraction(3))
    assert type(Scalar(Q3, 3).value) is Fraction


def test_scalar_constructor_rejects_inexact_values():
    for field, value in ((Q3, 0.1), (F5, 2.0), (Q3, True), (F5, False), (Q3, "1"),
                         (TQ, None), (F5, Fraction(1, 2))):
        with pytest.raises(ParseError, match=str(value)):
            Scalar(field, value)


def test_subtraction_is_one_operation(monkeypatch):
    def forbidden(*args):
        raise AssertionError("__sub__ went through __add__ or __neg__")

    monkeypatch.setattr(Scalar, "__add__", forbidden)
    monkeypatch.setattr(Scalar, "__neg__", forbidden)
    assert (F5.scalar(1) - F5.scalar(3)).value == 3
    assert (Q3.scalar(1) - Q3.scalar(3)).value == -2


def test_modulus_is_bounded_before_primality_test():
    from ultranorm import InvalidInputError

    t0 = time.perf_counter()
    with pytest.raises(InvalidInputError, match=r"2\^32"):
        FieldSpec.gf(1000000000000000003)
    with pytest.raises(ParseError, match=r"2\^32"):
        FieldSpec.parse("padic:1000000000000000003")
    assert time.perf_counter() - t0 < 1.0
    assert FieldSpec.gf(4294967291).prime == 4294967291  # the largest prime below 2^32


def test_gf_elements():
    assert [s.value for s in F5.elements()] == [0, 1, 2, 3, 4]


def test_gf_elements_are_built_once_per_field():
    assert F5.elements() is F5.elements() is FieldSpec.parse("gf:5").elements()
    assert type(F5.elements()) is tuple
    assert [s.value for s in FieldSpec.gf(7).elements()] == list(range(7))
    # the cache is private: repr and pickling still read kind and prime only
    assert repr(F5) == "FieldSpec(kind='gf', prime=5)"
    assert F5.__reduce__() == (FieldSpec, ("gf", 5))


def test_multiplicativity_exact():
    rng = random.Random(7)
    for field in (Q3, Q5, F5, TQ):
        for _ in range(200):
            a = random_scalar(field, rng)
            b = random_scalar(field, rng)
            assert valuation(a * b) == valuation(a) * valuation(b)


def test_ultrametric_and_isosceles():
    rng = random.Random(8)
    for field in (Q3, Q5, F5, TQ):
        for _ in range(200):
            a = random_scalar(field, rng)
            b = random_scalar(field, rng)
            va, vb = valuation(a), valuation(b)
            vs = valuation(a + b)
            assert vs <= max(va, vb)
            if va != vb:
                assert vs == max(va, vb)


def test_axiom_sweep_reports_clean():
    rng = random.Random(9)
    for field in (Q3, F5, TQ):
        pairs = [(random_scalar(field, rng), random_scalar(field, rng)) for _ in range(250)]
        report = check_valuation_axioms(field, pairs)
        assert report.ok
        assert report.violations == []
        assert report.checks > 0
        payload = report.to_json_dict()
        assert payload["ok"] is True
        assert payload["subject"] == str(field)


def test_axiom_sweep_catches_a_broken_valuation():
    # feed the checker scalars from a *fake* field wrapper by monkeypatching is
    # overkill; instead check the report machinery records violations
    from ultranorm.fields import AxiomReport

    report = AxiomReport(subject="demo")
    report.record(False, "demo-axiom", ("1", "2"), "nope")
    assert not report.ok
    assert report.to_json_dict()["violations"][0]["axiom"] == "demo-axiom"


# -- interned fields and the immutable value classes ----------------------------


def test_field_specs_are_interned():
    assert FieldSpec.parse("gf:5") is FieldSpec.gf(5) is FieldSpec("gf", 5) is F5
    assert FieldSpec.parse("padic:3") is FieldSpec.padic(3) is FieldSpec("padic", 3) is Q3
    assert FieldSpec.parse("trivial:q") is FieldSpec.trivial() is FieldSpec("trivial") is TQ


def test_float_or_bool_modulus_is_refused():
    from ultranorm import InvalidInputError

    FieldSpec.gf(3)   # interned first: its key (gf, 3) equals (gf, 3.0) and (gf, True)
    for kind, modulus in (("gf", 3.0), ("padic", 3.0), ("gf", True), ("padic", False),
                          ("gf", Fraction(3))):
        with pytest.raises(InvalidInputError, match="must be an int"):
            FieldSpec(kind, modulus)


def test_rejected_spec_leaves_the_intern_table_unchanged():
    from ultranorm import UltranormError
    from ultranorm.fields import _INTERNED

    before = dict(_INTERNED)
    for build in (lambda: FieldSpec("gf", 6), lambda: FieldSpec("gf", 3.0),
                  lambda: FieldSpec("padic", True), lambda: FieldSpec("gf", 2 ** 32 + 15),
                  lambda: FieldSpec("real", 3), lambda: FieldSpec("trivial", 3),
                  lambda: FieldSpec.parse("gf:4"), lambda: FieldSpec.parse("padic:1")):
        with pytest.raises(UltranormError):
            build()
    assert _INTERNED == before


def test_scalars_of_different_fields_are_unequal():
    gf3 = FieldSpec.gf(3)
    ones = [Scalar(gf3, 1), Scalar(Q3, 1), Scalar(TQ, 1)]
    for i, a in enumerate(ones):
        for j, b in enumerate(ones):
            assert (a == b) == (i == j)
            assert (a != b) == (i != j)
    assert Scalar(Q3, Fraction(2, 4)) == Scalar(Q3, Fraction(1, 2))
    assert Scalar(F5, 1) != 1 and Scalar(Q3, 1) != Fraction(1)


@pytest.mark.parametrize("value, names", [
    (FieldSpec.gf(5), ("kind", "prime", "extra")),
    (Scalar(FieldSpec.gf(5), 2), ("field", "value", "extra")),
], ids=["FieldSpec", "Scalar"])
def test_assignment_raises_attribute_error(value, names):
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
