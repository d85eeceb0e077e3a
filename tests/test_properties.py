"""Property tests of scalar arithmetic against plain integer and Fraction math,
of norms, distances and metric betweenness against the naive oracles, and of
axial isometries: compose and inverse laws, decompose round trips, probe-map JSON
round trips, and the paper's main theorem on complete maps of small F_q^n;
and of the command line, driven with hostile argvs.

Every test runs a fixed number of derandomized examples with no example
database, so the file is deterministic and takes a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import time
from fractions import Fraction
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from ultranorm import (
    AffineMap,
    AxialIsometry,
    DecompositionError,
    FieldSpec,
    NormSpec,
    ParseError,
    ProbeMap,
    Scalar,
    TableMap,
    Vector,
    decompose,
    distance,
    enumerate_space,
    is_metrically_between,
    norm,
    valuation,
    verify_isometry,
)
from ultranorm.cli import main

from gen import probe_grid
from naive import metric_between, one_norm, padic_abs, sup_norm, trivial_abs

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
    as_ints = Vector.make(field, coords)
    as_strings = Vector.make(field, [str(c) for c in coords])
    assert as_ints == as_strings


# -- norms, distances and betweenness ------------------------------------------

NORM_FIELDS = st.sampled_from([FieldSpec.padic(p) for p in (2, 3, 5, 7)]
                              + [FieldSpec.gf(2), FieldSpec.gf(7), FieldSpec.trivial()])


def coordinates(field):
    """Residues over gf:q; over padic:p, small rationals times p^k with |k| up
    to 45, so valuations run past p^40 both ways."""
    if field.kind == "gf":
        return st.integers(0, field.prime - 1)
    small = st.fractions(min_value=-50, max_value=50, max_denominator=50)
    if field.kind != "padic":
        return small
    return st.builds(lambda u, k: u * Fraction(field.prime) ** k, small, st.integers(-45, 45))


@st.composite
def coordinate_lists(draw, field, n, *bases):
    """n coordinates, each zero, fresh, or the matching one of some base list."""
    return [draw(st.sampled_from([0, *(b[i] for b in bases)]) | coordinates(field))
            for i in range(n)]


@st.composite
def norm_specs(draw, n):
    kind = draw(st.sampled_from(["one", "sup", "wsup"]))
    if kind != "wsup":
        return NormSpec(kind)
    weight = st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=100)
    return NormSpec.weighted_sup(draw(st.lists(weight, min_size=n, max_size=n)))


def naive_distance(field, spec, xs, ys):
    """||xs - ys|| under spec, from tests/naive.py's absolute values."""
    if field.kind == "padic":
        def absval(c):
            return padic_abs(c, field.prime)
    elif field.kind == "gf":
        def absval(c):
            return trivial_abs(c % field.prime)
    else:
        absval = trivial_abs
    diffs = [a - b for a, b in zip(xs, ys)]
    if spec.kind == "one":
        return one_norm(diffs, absval)
    if spec.kind == "sup":
        return sup_norm(diffs, absval)
    return sup_norm(zip(spec.weights, diffs), lambda wd: wd[0] * absval(wd[1]))


@SETTINGS
@given(field=NORM_FIELDS, n=st.integers(1, 6), data=st.data())
def test_norm_matches_naive_oracle(field, n, data):
    spec = data.draw(norm_specs(n))
    xs = data.draw(coordinate_lists(field, n))
    got = norm(Vector.make(field, xs), spec)
    assert type(got) is Fraction
    assert got == naive_distance(field, spec, xs, [0] * n)


@SETTINGS
@given(field=NORM_FIELDS, n=st.integers(1, 6), data=st.data())
def test_distance_matches_naive_oracle(field, n, data):
    spec = data.draw(norm_specs(n))
    xs = data.draw(coordinate_lists(field, n))
    ys = data.draw(coordinate_lists(field, n, xs))
    x, y = Vector.make(field, xs), Vector.make(field, ys)
    got = distance(x, y, spec)
    assert type(got) is Fraction
    assert got == distance(y, x, spec) == naive_distance(field, spec, xs, ys)


@SETTINGS
@given(field=NORM_FIELDS, n=st.integers(1, 5), data=st.data())
def test_metric_betweenness_matches_naive_oracle(field, n, data):
    xs = data.draw(coordinate_lists(field, n))
    ys = data.draw(coordinate_lists(field, n, xs))
    zs = data.draw(coordinate_lists(field, n, xs, ys))
    one = NormSpec.one()

    def dist(a, b):
        return naive_distance(field, one, a, b)

    x, z, y = (Vector.make(field, c) for c in (xs, zs, ys))
    assert is_metrically_between(x, z, y) == metric_between(xs, zs, ys, dist)


# -- axial isometries ----------------------------------------------------------

PADIC_FIELDS = st.sampled_from([FieldSpec.padic(2), FieldSpec.padic(3), FieldSpec.padic(5)])
SMALL_FRACTIONS = st.fractions(min_value=-50, max_value=50, max_denominator=30)


@st.composite
def units(draw, field):
    """A rational with |u|_p = 1: numerator and denominator prime to p."""
    p = field.prime
    num = draw(st.integers(1, 40).filter(lambda k: k % p))
    den = draw(st.integers(1, 40).filter(lambda k: k % p))
    return Fraction(draw(st.sampled_from([1, -1])) * num, den)


@st.composite
def rational_tables(draw, field):
    """A partial table on 0 and a few small integers, a -> a + p^5 * r_a.

    Two inputs differ by at most 24 < 2^5, so |a - b|_p > p^-5 bounds every
    perturbation difference: the table preserves distances yet is rarely
    affine."""
    values = draw(st.lists(st.integers(-12, 12).filter(bool), min_size=1, max_size=3,
                           unique=True))
    p = field.prime
    return TableMap.from_pairs(
        field, [(a, a + p ** 5 * draw(st.integers(-3, 3))) for a in [0] + values])


@st.composite
def rational_isometries(draw, field, n, tables=True):
    """An axial isometry over padic:p whose taus are affine or, with
    `tables`, partial rational tables."""
    taus = []
    for _ in range(n):
        if tables and draw(st.booleans()):
            taus.append(draw(rational_tables(field)))
        else:
            taus.append(AffineMap(Scalar(field, draw(units(field))),
                                  Scalar(field, draw(SMALL_FRACTIONS))))
    translation = Vector.make(field, draw(st.lists(SMALL_FRACTIONS, min_size=n, max_size=n)))
    return AxialIsometry(tuple(draw(st.permutations(range(n)))), tuple(taus), translation)


@st.composite
def finite_isometries(draw, q, n):
    taus = tuple(TableMap.from_residues(FieldSpec.gf(q), draw(st.permutations(range(q))))
                 for _ in range(n))
    translation = Vector.make(FieldSpec.gf(q),
                              draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n)))
    return AxialIsometry(tuple(draw(st.permutations(range(n)))), taus, translation)


def draw_domain_point(data, iso):
    """A point every table tau of iso is defined on."""
    coords = [None] * iso.dim
    for tau, src in zip(iso.taus, iso.sigma):
        if isinstance(tau, TableMap):
            coords[src] = data.draw(st.sampled_from([a for a, _ in tau.entries]))
        else:
            coords[src] = data.draw(SMALL_FRACTIONS)
    return Vector.make(iso.field, coords)


@SETTINGS
@given(field=PADIC_FIELDS, n=st.integers(1, 3), data=st.data())
def test_rational_compose_and_inverse_laws(field, n, data):
    f = data.draw(rational_isometries(field, n))
    g = data.draw(rational_isometries(field, n, tables=False))
    f_inv = f.inverse()
    y = draw_domain_point(data, f)
    x = g.inverse().apply(y)  # g(x) = y lies in f's domain
    assert g.apply(x) == y
    assert f.compose(g).apply(x) == f.apply(g.apply(x))
    assert g.compose(f).apply(y) == g.apply(f.apply(y))
    assert f_inv.apply(f.apply(y)) == y
    assert f.apply(f_inv.apply(f.apply(y))) == f.apply(y)
    assert f_inv.compose(f).apply(y) == y                # table after table
    assert f.compose(f_inv).apply(f.apply(y)) == f.apply(y)


@SETTINGS
@given(q=st.sampled_from([2, 3]), n=st.integers(1, 2), data=st.data())
def test_finite_compose_and_inverse_laws(q, n, data):
    f = data.draw(finite_isometries(q, n))
    g = data.draw(finite_isometries(q, n))
    f_inv = f.inverse()
    for x in enumerate_space(FieldSpec.gf(q), n):
        assert f.compose(g).apply(x) == f.apply(g.apply(x))
        assert f_inv.apply(f.apply(x)) == x == f.apply(f_inv.apply(x))


@SETTINGS
@given(q=st.sampled_from([2, 3, 5]), n=st.integers(1, 2), data=st.data())
def test_decompose_round_trip_finite(q, n, data):
    iso = data.draw(finite_isometries(q, n))
    pm = ProbeMap.from_isometry(iso, enumerate_space(FieldSpec.gf(q), n), complete=True)
    rec = decompose(pm)
    assert rec.sigma == iso.sigma
    assert rec.translation == iso.apply(Vector.zero(FieldSpec.gf(q), n))
    for x, y in zip(pm.domain, pm.images):
        assert rec.apply(x) == y


@SETTINGS
@given(field=PADIC_FIELDS, n=st.integers(1, 3), size=st.integers(2, 8), data=st.data())
def test_decompose_round_trip_affine(field, n, size, data):
    iso = data.draw(rational_isometries(field, n, tables=False))
    grid = probe_grid(field, n, size if n == 1 else 4 * size)
    rec = decompose(ProbeMap.from_isometry(iso, grid))
    assert rec.sigma == iso.sigma
    assert all(isinstance(tau, AffineMap) for tau in rec.taus)
    for x in grid + [draw_domain_point(data, iso)]:
        assert rec.apply(x) == iso.apply(x)


@SETTINGS
@given(field=PADIC_FIELDS, n=st.integers(1, 2), data=st.data())
def test_decompose_round_trip_rational_tables(field, n, data):
    iso = data.draw(rational_isometries(field, n))
    domains = [None] * n
    for tau, src in zip(iso.taus, iso.sigma):
        domains[src] = ([a for a, _ in tau.entries] if isinstance(tau, TableMap)
                        else [field.zero, field.one, Scalar(field, field.prime)])
    pm = ProbeMap.from_isometry(
        iso, [Vector(field, combo) for combo in itertools.product(*domains)])
    rec = decompose(pm)
    assert rec.sigma == iso.sigma
    for x, y in zip(pm.domain, pm.images):
        assert rec.apply(x) == y


@SETTINGS
@given(space=st.sampled_from([(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3)]),
       kind=st.sampled_from(["axial", "perturbed", "random"]), data=st.data())
def test_one_norm_isometries_are_exactly_the_axial_maps(space, kind, data):
    # complete maps of F_q^n, q^n <= 9: axial maps, axial maps with two images
    # swapped, and random bijections
    q, n = space
    points = enumerate_space(FieldSpec.gf(q), n)
    if kind == "random":
        images = data.draw(st.permutations(points))
    else:
        iso = data.draw(finite_isometries(q, n))
        images = [iso.apply(x) for x in points]
        if kind == "perturbed":
            i, j = data.draw(st.lists(st.integers(0, len(points) - 1),
                                      min_size=2, max_size=2, unique=True))
            images[i], images[j] = images[j], images[i]
    m = ProbeMap(tuple(points), tuple(images), complete=True)
    ok = verify_isometry(m, NormSpec.one()).ok
    try:
        rec = decompose(m)
    except DecompositionError as exc:
        assert not ok
        assert exc.witness in list(zip(m.domain, m.images))
    else:
        assert ok
        assert [rec.apply(x) for x in points] == list(images)


def _through_json(obj):
    return json.loads(json.dumps(obj))


@SETTINGS
@given(field=PADIC_FIELDS, n=st.integers(1, 2), size=st.integers(1, 8), data=st.data())
def test_probe_map_json_round_trip(field, n, size, data):
    iso = data.draw(rational_isometries(field, n, tables=False))
    pm = ProbeMap.from_isometry(iso, probe_grid(field, n, size))
    assert ProbeMap.from_json(_through_json(pm.to_json_dict())) == pm
    q = data.draw(st.sampled_from([2, 3]))
    finite = ProbeMap.from_isometry(data.draw(finite_isometries(q, n)),
                                    enumerate_space(FieldSpec.gf(q), n), complete=True)
    assert ProbeMap.from_json(_through_json(finite.to_json_dict())) == finite


# -- argv fuzzing: hostile command lines exit 0, 1 or 2, never 3, and fast ------

FIELD_TOKENS = ["padic:3", "padic:2", "gf:2", "gf:3", "trivial:q", "gf:4", "padic:1", "gf:0",
                "gf:-3", "gf:x", "padic:4294967291", "gf:4294967311", "padic:" + "9" * 5000,
                "", ":", "trivial:7", "PADIC:3"]
NORM_TOKENS = ["one", "sup", "wsup:1,2", "wsup:1/2,3", "wsup:0,1", "wsup:-1,1", "wsup:1/0",
               "wsup:", "wsup:nan,1", "wsup:1e400", "wsup:" + "9" * 5000, "wsup:1e300000,1",
               "two", ""]
VECTOR_TOKENS = ["1,0", "1/3,0", "0,0", "3,9", "-2/9,27", "1", "0", "1,2,3", "", ",", "1,,2",
                 "1/0,1", "nan,1", "inf", "0.5,1", "1e5,1", "1e300000,1", "1e-300000",
                 "9" * 5000 + ",1", "1/" + "9" * 5000, "3" * 4000 + ",1", ",".join(["1"] * 13),
                 ",".join(["1"] * 20000), ",".join(["0"] * 20000)]
# a cap or space size that lets through a legitimately long run (say q^n = 9
# under sup, or 2^16 axiom samples) is left out: the 1 s bound is for refusals
Q_TOKENS = ["2", "3", "4", "1", "0", "-3", "1000000", "4294967311", "x"]
N_TOKENS = ["1", "2", "0", "-1", "200", "9" * 5000]
CAP_TOKENS = ["-1", "0", "1", "4", "1.5"]
DIM_TOKENS = ["-1", "0", "1", "3", "1" + "0" * 30]
SAMPLES_TOKENS = ["-5", "0", "1", "40", "65537", "1" + "0" * 30, "x"]
SEED_TOKENS = ["0", "7", "-1", "9" * 30]
VALUES_TOKENS = ["0,1,2", "0,1,1/3,2/3,3,4/3", "", "x", "1/0", ",".join(map(str, range(300)))]
PROBE_TEXTS = [
    json.dumps({"field": "gf:2", "n": 2, "complete": True, "pairs": [
        [[a, b], [a, b]] for a in "01" for b in "01"]}),
    json.dumps({"field": "padic:3", "n": 2, "pairs": [
        [["0", "0"], ["0", "0"]], [["1", "0"], ["1", "0"]], [["0", "1"], ["0", "1"]],
        [["1", "1"], ["1", "2"]]]}),
    json.dumps({"field": "gf:2", "n": 1, "pairs": [[["0"], ["0"]], [["0"], ["1"]]]}),
    json.dumps({"field": "padic:3", "n": 1, "pairs": [
        [[str(i)], [str(i)]] for i in range(1025)]}),
    '{"field":"gf:2","n":2,"pairs":[],"complete":true}',
    '{"field":"gf:2","n":1,"pairs":[' + "[" * 900 + "]" * 900 + "]}",
    "[" * 100000 + "]" * 100000,
    '{"field":"padic:3","n":1,"pairs":[[[' + "1" * 5000 + '],["1"]]]}',
    '{"field":"padic:3","n":1,"pairs":[[[0.5],["1"]]]}',
    '{"field":"gf:4","n":1,"pairs":[]}',
    '{"field":"padic:3","n":true,"pairs":[]}',
    "", "null", "{}", "[]", '"x"', "{" * 1000,
]
PROBES_TOKENS = ["-", "-", "-", "", "no-such-probes.json"]
SWITCH = [None, "on"]  # in every token list, None leaves the flag out

CLI_FLAGS = {
    "norm": [("--field", FIELD_TOKENS), ("--norm", NORM_TOKENS), ("--vec", VECTOR_TOKENS)],
    "distance": [("--field", FIELD_TOKENS), ("--norm", NORM_TOKENS),
                 ("--x", VECTOR_TOKENS), ("--y", VECTOR_TOKENS)],
    "between": [("--field", FIELD_TOKENS), ("--x", VECTOR_TOKENS), ("--z", VECTOR_TOKENS),
                ("--y", VECTOR_TOKENS)],
    "segment": [("--field", FIELD_TOKENS), ("--x", VECTOR_TOKENS), ("--y", VECTOR_TOKENS),
                ("--cap", [None] + CAP_TOKENS)],
    "minimize": [("--field", FIELD_TOKENS), ("--a", VECTOR_TOKENS), ("--c", VECTOR_TOKENS),
                 ("--cap", [None] + CAP_TOKENS)],
    "verify": [("--norm", NORM_TOKENS), ("--probes", PROBES_TOKENS)],
    "decompose": [("--probes", PROBES_TOKENS)],
    "counterexample": [("--field", FIELD_TOKENS), ("--e0", VECTOR_TOKENS),
                       ("--v0", VECTOR_TOKENS), ("--norm", [None] + NORM_TOKENS),
                       ("--probes", [None] + PROBES_TOKENS),
                       ("--values", [None] + VALUES_TOKENS)],
    "enumerate": [("--q", Q_TOKENS), ("--n", N_TOKENS), ("--norm", [None] + NORM_TOKENS),
                  ("--centred", SWITCH), ("--cap", [None] + CAP_TOKENS),
                  ("--timing", SWITCH)],
    "check-betweenness": [("--q", Q_TOKENS), ("--n", N_TOKENS),
                          ("--cap", [None] + CAP_TOKENS), ("--timing", SWITCH)],
    "check-axioms": [("--field", FIELD_TOKENS), ("--norm", [None] + NORM_TOKENS),
                     ("--dim", [None] + DIM_TOKENS), ("--samples", [None] + SAMPLES_TOKENS),
                     ("--seed", [None] + SEED_TOKENS)],
}


@pytest.mark.parametrize("command", sorted(CLI_FLAGS))
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data(), stdin=st.sampled_from(PROBE_TEXTS))
def test_hostile_argv_exits_zero_one_or_two_fast(command, data, stdin):
    argv = [command]
    for flag, tokens in CLI_FLAGS[command]:
        token = data.draw(st.sampled_from(tokens))
        if token is not None:
            # --flag=value, so that values starting with "-" reach the parser
            argv.append(flag if tokens is SWITCH else f"{flag}={token}")
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with mock.patch("sys.stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    elapsed = time.perf_counter() - t0
    assert code in (0, 1, 2), err.getvalue()[-2000:]
    assert elapsed < 1.0


# -- equal values hash alike -----------------------------------------------------


@SETTINGS
@given(field=FIELDS, other=FIELDS, same=st.booleans(), n=st.integers(1, 3), data=st.data())
def test_equal_scalars_and_vectors_hash_alike(field, other, same, n, data):
    """Equal iff same field and same canonical value; equal values hash alike."""
    other = field if same else other
    xs = data.draw(st.lists(coordinates(field), min_size=n, max_size=n))
    ys = st.lists(coordinates(other), min_size=n, max_size=n)
    ys = data.draw(st.sampled_from([xs, [3 * x for x in xs]]) | ys if same else ys)
    for a, b in ((Scalar(field, xs[0]), Scalar(other, ys[0])),
                 (Vector.make(field, xs), Vector.make(other, ys))):
        assert (a == b) == (a.field is b.field and str(a) == str(b))
        if a == b:
            assert hash(a) == hash(b)
