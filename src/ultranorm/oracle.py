"""Independent brute-force ground truth over finite fields.

Everything here works by exhaustion: distance-preserving bijections of
F_q^n are found by backtracking with incremental pairwise-distance pruning,
betweenness is checked over all q**(3n) triples, and the found isometry sets
are checked for group closure.  Structural facts (the taxicab isometry group
is S_n permuting coordinates, a bijection of F_q per coordinate, and a
translation, giving n! * (q!)**n maps) are verified against these
enumerations, never assumed by them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from math import factorial

from .betweenness import coordinate_between, is_metrically_between
from .errors import EnumerationTooLargeError
from .fields import FieldSpec
from .isometry import DecompositionError, ProbeMap, UnderdeterminedError, decompose
from .spaces import NormSpec, Vector, distance, enumerate_space

DEFAULT_SPACE_CAP = 9          # points; (q^n)! bijections would dwarf anything larger
DEFAULT_TRIPLE_CAP = 10 ** 7   # betweenness triples


def axial_isometry_count(q: int, n: int, centred: bool = False) -> int:
    """Predicted taxicab isometry count: n! * (q!)**n, with (q-1)! per
    coordinate in the centred case (translations absorb the rest).

    This is a corollary of the axial form over the trivial valuation (any
    bijection of F_q is a scalar isometry); the enumerator cross-checks it
    and never assumes it.
    """
    per_coord = factorial(q - 1) if centred else factorial(q)
    return factorial(n) * per_coord ** n


@dataclass
class EnumerationResult:
    """Outcome of a full isometry search over F_q^n."""

    q: int
    n: int
    norm: NormSpec
    centred: bool
    points: tuple[Vector, ...]
    isometries: tuple[tuple[int, ...], ...]   # image-index tuples, search order
    attempts: int                             # candidate assignments tried
    axial: int
    non_axial_witnesses: list = dc_field(default_factory=list)
    duration: float = 0.0

    @property
    def count(self) -> int:
        return len(self.isometries)

    @property
    def formula(self) -> int:
        return axial_isometry_count(self.q, self.n, self.centred)

    @property
    def formula_match(self) -> bool:
        return self.count == self.formula

    def probe_map(self, perm: tuple[int, ...]) -> ProbeMap:
        return ProbeMap(self.points, tuple(self.points[i] for i in perm), complete=True)

    def to_json_dict(self, timing: bool = True) -> dict:
        out = {
            "q": self.q,
            "n": self.n,
            "norm": str(self.norm),
            "centred": self.centred,
            "isometries": self.count,
            "axial": self.axial,
            "formula": self.formula,
            "match": self.formula_match,
            "attempts": self.attempts,
            "non_axial": len(self.non_axial_witnesses),
        }
        if timing:
            out["duration_s"] = self.duration
        return out


def _search(points, dist, images, used, start, counter):
    """Backtracking over image assignments in point order.

    Yields complete image tuples; every pair was distance-checked on the way
    down, so each yield is an isometry by construction.
    """
    n_points = len(points)
    if start == n_points:
        yield tuple(images)
        return
    row = dist[start]
    for cand in range(n_points):
        if used[cand]:
            continue
        counter[0] += 1
        cand_row = dist[cand]
        if all(row[j] == cand_row[images[j]] for j in range(start)):
            images.append(cand)
            used[cand] = True
            yield from _search(points, dist, images, used, start + 1, counter)
            used[cand] = False
            images.pop()


def enumerate_isometries(q: int, n: int, spec: NormSpec | None = None,
                         centred: bool = False,
                         cap: int | None = None) -> EnumerationResult:
    """Find every distance-preserving bijection of (F_q^n, spec) by search.

    Incremental pruning rejects a partial assignment at its first violated
    pairwise distance.  Each found bijection is then classified through
    `decompose`: success means axial, failure is recorded with its witness.
    Guarded by q**n <= cap (default 9).
    """
    if spec is None:
        spec = NormSpec.one()
    EnumerationTooLargeError.check(q, n, DEFAULT_SPACE_CAP if cap is None else cap,
                                   f"F_{q}^{n}")
    field = FieldSpec.gf(q)

    t0 = time.perf_counter()
    points = enumerate_space(field, n)
    dist = [[distance(x, y, spec) for y in points] for x in points]
    images: list[int] = []
    used = [False] * len(points)
    if centred:
        # lexicographic order puts the origin first; pin it
        images.append(0)
        used[0] = True
    counter = [0]
    perms = list(_search(points, dist, images, used, len(images), counter))

    result = EnumerationResult(
        q=q, n=n, norm=spec, centred=centred, points=tuple(points),
        isometries=tuple(perms), attempts=counter[0], axial=0)
    for perm in perms:
        try:
            decompose(result.probe_map(perm))
            result.axial += 1
        except (DecompositionError, UnderdeterminedError) as exc:
            result.non_axial_witnesses.append({"map": list(perm), "reason": str(exc)})
    result.duration = time.perf_counter() - t0
    return result


@dataclass
class BetweennessReport:
    """Exhaustive check that metric and coordinate betweenness coincide."""

    q: int
    n: int
    triples: int = 0
    mismatches: int = 0
    first_mismatches: list = dc_field(default_factory=list)
    duration: float = 0.0

    @property
    def ok(self) -> bool:
        return self.mismatches == 0

    def to_json_dict(self, timing: bool = True) -> dict:
        out = {
            "q": self.q,
            "n": self.n,
            "triples": self.triples,
            "mismatches": self.mismatches,
            "ok": self.ok,
            "witnesses": [
                {"x": str(x), "z": str(z), "y": str(y), "metric": m, "coordinate": c}
                for x, z, y, m, c in self.first_mismatches
            ],
        }
        if timing:
            out["duration_s"] = self.duration
        return out


def exhaustive_betweenness_check(q: int, n: int,
                                 cap: int | None = None) -> BetweennessReport:
    """Run both betweenness predicates over every (x, z, y) in F_q^n.

    The exhaustive run is itself the ground truth: the report counts
    disagreements (expected 0) over all q**(3n) triples.
    """
    EnumerationTooLargeError.check(q, 3 * n, DEFAULT_TRIPLE_CAP if cap is None else cap,
                                   f"triples of F_{q}^{n}")
    points = enumerate_space(FieldSpec.gf(q), n)
    report = BetweennessReport(q=q, n=n)
    t0 = time.perf_counter()
    for x in points:
        for z in points:
            for y in points:
                metric = is_metrically_between(x, z, y)
                coord = coordinate_between(x, z, y)
                report.triples += 1
                if metric != coord:
                    report.mismatches += 1
                    if len(report.first_mismatches) < 10:
                        report.first_mismatches.append((x, z, y, metric, coord))
    report.duration = time.perf_counter() - t0
    return report


@dataclass
class ClosureReport:
    """Group sanity over an enumerated isometry set."""

    size: int
    has_identity: bool = False
    closed: bool = True
    inverses_ok: bool = True
    compositions_checked: int = 0
    missing: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.has_identity and self.closed and self.inverses_ok

    def to_json_dict(self) -> dict:
        return {
            "size": self.size,
            "has_identity": self.has_identity,
            "closed": self.closed,
            "inverses_ok": self.inverses_ok,
            "compositions_checked": self.compositions_checked,
            "ok": self.ok,
            "missing": self.missing[:10],
        }


def group_closure_check(result: EnumerationResult) -> ClosureReport:
    """Assert the enumerated set is a group: identity, closure, inverses.

    Maps are composed as index permutations ((f o g)[i] = f[g[i]]) and looked
    up in the enumerated set.
    """
    perms = set(result.isometries)
    n_points = len(result.points)
    report = ClosureReport(size=len(perms))
    report.has_identity = tuple(range(n_points)) in perms
    for f in result.isometries:
        inv = [0] * n_points
        for i, fi in enumerate(f):
            inv[fi] = i
        if tuple(inv) not in perms:
            report.inverses_ok = False
            if len(report.missing) < 10:
                report.missing.append({"inverse_of": list(f)})
        for g in result.isometries:
            comp = tuple(f[g[i]] for i in range(n_points))
            report.compositions_checked += 1
            if comp not in perms:
                report.closed = False
                if len(report.missing) < 10:
                    report.missing.append({"compose": [list(f), list(g)]})
    return report
