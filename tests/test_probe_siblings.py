"""`ProbeMap._with_images` builds a map on an existing domain tuple: it
checks only the new images, and hands on the positions of the origin and the
axis probes that `decompose` reads.  These tests hold a sibling to the map
the constructor builds from the same arguments: the same refusals, equality,
hash, pickle and lookups, and the same `decompose` result or failure on
every map of three small spaces.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from ultranorm import (
    FieldSpec,
    NormSpec,
    ProbeMap,
    Vector,
    decompose,
    enumerate_isometries,
    enumerate_space,
)
from ultranorm.errors import UltranormError

F3, F5, Q3 = FieldSpec.gf(3), FieldSpec.gf(5), FieldSpec.padic(3)


def _identity(field: FieldSpec, n: int) -> ProbeMap:
    points = tuple(enumerate_space(field, n))
    return ProbeMap(points, points, complete=True)


def _outcome(call):
    try:
        return "ok", call()
    except UltranormError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


def _shifted(points):
    return tuple(points[1:] + points[:1])


BAD_IMAGES = {
    "list": lambda pts: list(pts),
    "short": lambda pts: pts[:-1],
    "foreign-field": lambda pts: pts[:-1] + (Vector.make(F5, [0, 0]),),
    "wrong-dim": lambda pts: pts[:-1] + (Vector.make(F3, [0, 0, 0]),),
    "not-a-vector": lambda pts: pts[:-1] + ((0, 0),),
}


@pytest.mark.parametrize("make", BAD_IMAGES.values(), ids=BAD_IMAGES.keys())
def test_with_images_refuses_what_the_constructor_refuses_with_its_message(make):
    base = _identity(F3, 2)
    images = make(base.domain)
    expected = _outcome(lambda: ProbeMap(base.domain, images, complete=True))
    assert expected[0] != "ok"
    assert _outcome(lambda: base._with_images(images)) == expected


@pytest.mark.parametrize("copier", [lambda m: pickle.loads(pickle.dumps(m)),
                                    copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_a_sibling_equals_hashes_and_copies_like_the_constructed_map(copier):
    base = _identity(F3, 2)
    images = _shifted(base.domain)
    sibling, built = base._with_images(images), ProbeMap(base.domain, images, complete=True)
    assert sibling == built and hash(sibling) == hash(built)
    assert sibling.domain is base.domain and sibling.complete
    back = copier(sibling)
    assert back == built and hash(back) == hash(built)
    for m in (sibling, back):
        assert dict(zip(m.domain, m.images)) == dict(zip(base.domain, images))


def test_a_sibling_of_a_partial_map_stays_partial():
    domain = tuple(Vector.make(Q3, [a, b]) for a, b in [(0, 0), (1, 0), (0, 1)])
    base = ProbeMap(domain, domain)
    sibling = base._with_images(tuple(reversed(domain)))
    assert not sibling.complete
    assert sibling == ProbeMap(domain, tuple(reversed(domain)))


SPACES = {"F_2^3": (2, 3, NormSpec.one()), "F_3^2": (3, 2, NormSpec.one()),
          "sup F_2^2": (2, 2, NormSpec.sup())}


@pytest.mark.parametrize("q, n, spec", SPACES.values(), ids=SPACES.keys())
def test_decompose_reads_a_sibling_as_it_reads_a_fresh_map(q, n, spec):
    result = enumerate_isometries(q, n, spec)
    points = result.points
    failures = 0
    for perm in result.isometries:
        images = tuple(points[i] for i in perm)
        sibling = _outcome(lambda: decompose(result.probe_map(perm)))
        fresh = _outcome(lambda: decompose(ProbeMap(points, images, complete=True)))
        assert sibling == fresh, perm
        failures += sibling[0] != "ok"
    assert failures == result.count - result.axial


def test_a_missing_origin_is_still_the_first_failure_of_a_sibling():
    domain = tuple(Vector.make(F3, [a, 1]) for a in range(3))
    base = ProbeMap(domain, domain)
    sibling = base._with_images(_shifted(domain))
    assert _outcome(lambda: decompose(sibling)) == _outcome(
        lambda: decompose(ProbeMap(domain, _shifted(domain))))
    assert _outcome(lambda: decompose(sibling))[1] == "probe domain must contain the origin"


def test_enumerate_builds_one_probe_map_and_one_scan_of_its_domain(monkeypatch):
    calls = []
    init = ProbeMap.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)
    monkeypatch.setattr(ProbeMap, "__init__", counted)
    result = enumerate_isometries(3, 2)
    assert result.count == result.axial == 72
    assert len(calls) == 1
    first, last = (result.probe_map(p) for p in (result.isometries[0], result.isometries[-1]))
    assert first._positions() is last._positions()
    assert len(calls) == 1


def test_decompose_reads_the_origin_and_axes_wherever_the_domain_holds_them():
    points = tuple(reversed(enumerate_space(F3, 2)))   # the origin comes last
    shift = Vector.make(F3, [1, 2])
    base = ProbeMap(points, points, complete=True)
    for images in (tuple(x + shift for x in points),
                   tuple(Vector(F3, x.coords[::-1]) + shift for x in points)):
        for m in (base._with_images(images), ProbeMap(points, images, complete=True)):
            iso = decompose(m)
            assert iso.translation == shift
            assert [iso.apply(x) for x in points] == list(images)
