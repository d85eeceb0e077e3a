"""TableMap's validation against a pairwise reference built on `naive`.

Seeded tables over gf:2/3/5/7, trivial:q and padic:2/3/5: clean tables,
tables short of one entry, planted collisions (one or several), planted
metric breaks, and tables with both faults.  The reference takes every
pair of entries literally: a table is accepted when no two images are
equal, every pair keeps its absolute difference (`naive.padic_abs`, or
`naive.trivial_abs` when the field is trivially valued), and a gf:q table
covers all q residues.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from naive import padic_abs, trivial_abs
from ultranorm import FieldSpec, InvalidInputError, TableMap

FIELDS = ["gf:2", "gf:3", "gf:5", "gf:7", "trivial:q", "padic:2", "padic:3", "padic:5"]
KINDS = ["clean", "partial", "collision", "collisions", "metric-break", "both"]
SEEDS = range(12)


def _absval(tag: str):
    kind, _, p = tag.partition(":")
    if kind == "padic":
        return lambda x: padic_abs(x, int(p))
    return trivial_abs


def _rational(rng: random.Random, p: int) -> Fraction:
    return Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, p, p * p]))


def _table(tag: str, kind: str, seed: int) -> list[tuple]:
    """Raw (input, image) pairs in entry order, with the faults `kind` names."""
    rng = random.Random(f"{tag}/{kind}/{seed}")
    field_kind, _, modulus = tag.partition(":")
    if field_kind == "gf":
        q = int(modulus)
        inputs, images = list(range(q)), rng.sample(range(q), q)
    elif field_kind == "trivial":
        inputs = sorted({_rational(rng, 7) for _ in range(rng.randint(2, 8))})
        images = rng.sample(sorted({_rational(rng, 7) for _ in range(40)}), len(inputs))
    else:   # an affine map with a unit slope is an isometry of padic:p
        p = int(modulus)
        units = [n for n in range(1, 9) if n % p]
        u = Fraction(rng.choice([1, -1]) * rng.choice(units), rng.choice(units))
        c = _rational(rng, p)
        inputs = sorted({_rational(rng, p) for _ in range(rng.randint(2, 8))})
        images = [u * a + c for a in inputs]
    order = rng.sample(range(len(inputs)), len(inputs))
    inputs, images = [inputs[k] for k in order], [images[k] for k in order]
    if kind == "partial":
        del inputs[-1], images[-1]
    n = len(images)
    if kind in ("collision", "collisions", "both") and n >= 2:
        for _ in range(2 if kind == "collisions" else 1):
            i, j = rng.sample(range(n), 2)
            images[j] = images[i]
    if kind in ("metric-break", "both") and n >= 2:
        j = rng.randrange(n)
        if field_kind == "padic":   # moves one image by p**k, which most pairs notice
            images[j] += Fraction(int(modulus)) ** rng.randint(-2, 2)
        else:   # trivially valued, a broken metric is a collision
            images[j] = images[rng.choice([k for k in range(n) if k != j])]
    return list(zip(inputs, images))


def _reference(tag: str, pairs):
    """(collisions, breaks, full): the colliding and the metric-breaking pairs of
    entries, in pair order, and whether a gf:q table covers the field."""
    absval = _absval(tag)
    collisions, breaks = [], []
    for (a, fa), (b, fb) in itertools.combinations(pairs, 2):
        if fa == fb:
            collisions.append((a, b))
        if absval(a - b) != absval(fa - fb):
            breaks.append((a, b))
    full = not tag.startswith("gf:") or len(pairs) == int(tag[3:])
    return collisions, breaks, full


def _verdict(tag, kind, seed):
    pairs = _table(tag, kind, seed)
    try:
        TableMap.from_pairs(FieldSpec.parse(tag), pairs)
    except InvalidInputError as exc:
        return pairs, str(exc)
    return pairs, None


@pytest.mark.parametrize("tag", FIELDS)
def test_table_map_accepts_exactly_the_tables_the_reference_accepts(tag):
    verdicts = set()
    for kind, seed in itertools.product(KINDS, SEEDS):
        pairs, refusal = _verdict(tag, kind, seed)
        collisions, breaks, full = _reference(tag, pairs)
        accepted = not collisions and not breaks and full
        assert (refusal is None) == accepted, (kind, seed, pairs, refusal)
        verdicts.add(accepted)
    assert verdicts == {True, False}   # the seeds reach both verdicts on every field


@pytest.mark.parametrize("tag", FIELDS)
def test_a_refusal_names_a_pair_the_reference_faults(tag):
    said = set()
    for kind, seed in itertools.product(KINDS, SEEDS):
        pairs, refusal = _verdict(tag, kind, seed)
        if refusal is None:
            continue
        collisions, breaks, _ = _reference(tag, pairs)
        if refusal.startswith("table not injective: "):
            said.add("injective")
            named = {f"table not injective: {a} and {b} both map to " for a, b in collisions}
            assert any(refusal.startswith(text) for text in named), (pairs, refusal)
        elif refusal.startswith("table not metric-preserving: "):
            said.add("metric")
            named = {f"table not metric-preserving: |{a}-{b}|=" for a, b in breaks}
            assert any(refusal.startswith(text) for text in named), (pairs, refusal)
        else:
            assert refusal.startswith("finite-field table must be a bijection"), refusal
    assert "injective" in said
    assert ("metric" in said) == tag.startswith("padic:")


@pytest.mark.parametrize("tag", FIELDS)
def test_not_injective_names_the_first_image_to_repeat_in_entry_order(tag):
    for kind, seed in itertools.product(KINDS, SEEDS):
        pairs, refusal = _verdict(tag, kind, seed)
        earlier = {}
        for a, fa in pairs:
            if fa in earlier:
                assert refusal == f"table not injective: {earlier[fa]} and {a} both map to {fa}"
                break
            earlier[fa] = a
        else:
            assert refusal is None or not refusal.startswith("table not injective")
