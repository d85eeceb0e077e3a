"""Property tests of scalar arithmetic against plain integer and Fraction math.

Every test runs a fixed number of derandomized examples with no example
database, so the file is deterministic and takes a few seconds.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from ultranorm import FieldSpec, ParseError, Scalar, Vector, valuation

from naive import padic_abs, trivial_abs

# Reporting a failure imports libcst, which warns on import; without this
# filter "error" turns that warning into a pytest INTERNALERROR.
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)

PRIMES = st.sampled_from([2, 3, 5, 7])
FIELDS = st.sampled_from([FieldSpec.gf(2), FieldSpec.gf(7), FieldSpec.padic(3),
                          FieldSpec.padic(2), FieldSpec.trivial()])
INTS = st.integers(min_value=-10**40, max_value=10**40)
FRACTIONS = st.fractions(max_denominator=10**12)


@SETTINGS
@given(q=PRIMES, a=INTS)
def test_gf_constructor_reduces_residues(q, a):
    field = FieldSpec.gf(q)
    x = Scalar(field, a)
    assert x == Scalar(field, a % q) == field.scalar(str(a))
    assert hash(x) == hash(Scalar(field, a % q))
    assert 0 <= x.value < q


@SETTINGS
@given(q=PRIMES, a=INTS, b=INTS)
def test_gf_arithmetic_matches_integers_mod_q(q, a, b):
    field = FieldSpec.gf(q)
    x, y = Scalar(field, a), Scalar(field, b)
    assert (x + y).value == (a + b) % q
    assert (x - y).value == (a - b) % q
    assert (x * y).value == (a * b) % q
    assert (-x).value == -a % q
    if a % q:
        assert x.inverse().value * a % q == 1
    else:
        with pytest.raises(ZeroDivisionError):
            x.inverse()


@SETTINGS
@given(p=PRIMES, a=FRACTIONS, b=FRACTIONS)
def test_padic_arithmetic_matches_fractions(p, a, b):
    field = FieldSpec.padic(p)
    x, y = Scalar(field, a), Scalar(field, b)
    assert (x + y).value == a + b
    assert (x - y).value == a - b
    assert (x * y).value == a * b
    assert (-x).value == -a
    if a:
        assert x.inverse().value == 1 / a
    else:
        with pytest.raises(ZeroDivisionError):
            x.inverse()


@SETTINGS
@given(p=PRIMES, a=FRACTIONS)
def test_valuation_matches_naive_oracle(p, a):
    assert valuation(Scalar(FieldSpec.padic(p), a)) == padic_abs(a, p)
    assert valuation(Scalar(FieldSpec.trivial(), a)) == trivial_abs(a)


@SETTINGS
@given(field=FIELDS, value=st.floats(allow_nan=True) | st.booleans())
def test_floats_and_bools_are_parse_errors(field, value):
    with pytest.raises(ParseError):
        Scalar(field, value)
    with pytest.raises(ParseError):
        field.scalar(value)


@SETTINGS
@given(field=FIELDS, coords=st.lists(INTS, min_size=1, max_size=4))
def test_json_integer_and_string_coordinates_agree(field, coords):
    as_ints = Vector.from_json({"field": str(field), "coords": coords})
    as_strings = Vector.from_json({"field": str(field), "coords": [str(c) for c in coords]})
    assert as_ints == as_strings
