from __future__ import annotations

import random
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


def test_gf_elements():
    assert [s.value for s in F5.elements()] == [0, 1, 2, 3, 4]


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
