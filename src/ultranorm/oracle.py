"""Independent brute-force ground truth over finite fields.

Everything here works by exhaustion over one coded table of the (q**n)**2
exact distances of F_q^n (`_space`): distance-preserving bijections are
found by a depth-first search that keeps, for each point and each distance,
the bitset of points at that distance, and intersects them as points are
placed; betweenness is checked over all q**(3n) triples with two bitsets
over y per (x, z) pair, the metric side built from those same bitsets and
the coordinate side from the points with a given value at a given
coordinate.
Structural facts (the taxicab isometry group is S_n permuting coordinates,
a bijection of F_q per coordinate, and a translation, giving n! * (q!)**n
maps) are verified against these enumerations, never assumed by them.
"""

from __future__ import annotations

from math import factorial

from .errors import (DEFAULT_SPACE_CAP, DEFAULT_TRIPLE_CAP, DEFAULT_ULTRAMETRIC_SPACE_CAP,
                     VERIFY_CAP, WITNESS_LIMIT, EnumerationTooLargeError, InvalidInputError,
                     require_type)
from .fields import FieldSpec
from .isometry import DecompositionError, ProbeMap, UnderdeterminedError, decompose
from .spaces import NormSpec, Vector, distance, enumerate_space


def axial_isometry_count(q: int, n: int, centred: bool = False) -> int:
    """Predicted taxicab isometry count: n! * (q!)**n, with (q-1)! per
    coordinate in the centred case (translations absorb the rest).

    This is a corollary of the axial form over the trivial valuation (any
    bijection of F_q is a scalar isometry); the enumerator cross-checks it
    and never assumes it.
    """
    require_type("field size", q, int)
    require_type("dimension", n, int)
    require_type("centred flag", centred, bool)
    if q < 1 or n < 1:
        raise InvalidInputError(f"q and n must be at least 1, got q={q}, n={n}")
    per_coord = factorial(q - 1) if centred else factorial(q)
    return factorial(n) * per_coord ** n


class EnumerationResult:
    """Outcome of a full isometry search over F_q^n."""

    __slots__ = ("q", "n", "norm", "centred", "points", "isometries", "attempts", "axial",
                 "non_axial_witnesses", "_identity")

    def __init__(self, q: int, n: int, norm: NormSpec, centred: bool,
                 points: tuple[Vector, ...], isometries: tuple[tuple[int, ...], ...],
                 attempts: int, axial: int):
        self.q, self.n, self.norm, self.centred, self.points = q, n, norm, centred, points
        self.isometries = isometries   # image-index tuples, search order
        self.attempts = attempts       # free candidates over all search nodes
        self.axial, self.non_axial_witnesses = axial, []

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
        """A sibling of one identity map over `points`, so the maps share its checks."""
        if not hasattr(self, "_identity"):
            self._identity = ProbeMap(self.points, self.points, complete=True)
        return self._identity._with_images(tuple(self.points[i] for i in perm))

    def to_json_dict(self) -> dict:
        return {
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


def _space(q: int, n: int, spec: NormSpec) -> tuple[list[Vector], list[list[int]], dict]:
    """F_q^n (lexicographic, origin first), code[i][j] = the code of d(i, j) under
    spec, each distinct value coded in order of first appearance, and the codes by value."""
    points, codes = enumerate_space(FieldSpec.gf(q), n), {}
    EnumerationTooLargeError.check(len(points), 2, VERIFY_CAP, f"F_{q}^{n} distances")
    return points, [[codes.setdefault(distance(x, y, spec), len(codes)) for y in points]
                    for x in points], codes


def _balls(code: list[list[int]]) -> list[list[int]]:
    """ball[c][k]: the bitset of points at code k from point c."""
    width = 1 + max(map(max, code))
    ball = [[0] * width for _ in code]
    for c, row in enumerate(code):
        for p, k in enumerate(row):
            ball[c][k] |= 1 << p
    return ball


def _search(code: list[list[int]], images: list[int]) -> tuple[list[tuple[int, ...]], int]:
    """Depth-first search over image assignments in point order, on bitsets.

    code[i][j] is the small-int code of d(i, j), and ball[c][k] (`_balls`)
    is the bitset of points at code k from point c.  The candidates for
    point i are the free points in ball[images[j]][code[i][j]] for every
    placed j < i, walked in ascending order, so each found tuple is an
    isometry by construction and the tuples come in lexicographic order.
    Returns them with the attempts: the free points at each node visited,
    that is every candidate a pair-by-pair check would have tried.  The
    search keeps its own stack, so its depth is not bounded by Python's
    recursion limit.
    """
    ball = _balls(code)
    n_points, root = len(code), len(images)
    found: list[tuple[int, ...]] = []
    free = (1 << n_points) - 1 - sum(1 << c for c in images)
    attempts = 0
    untried: list[int] = []   # untried[d]: candidates left where images[root + d] was placed
    while True:
        i = len(images)
        attempts += n_points - i
        if i == n_points:
            found.append(tuple(images))
            cands = 0
        else:
            cands = free
            for img, k in zip(images, code[i]):
                cands &= ball[img][k]
        while not cands:
            if len(images) == root:
                return found, attempts
            free |= 1 << images.pop()
            cands = untried.pop()
        low = cands & -cands
        untried.append(cands ^ low)
        images.append(low.bit_length() - 1)
        free ^= low


def enumerate_isometries(q: int, n: int, spec: NormSpec | None = None,
                         centred: bool = False,
                         cap: int | None = None) -> EnumerationResult:
    """Find every distance-preserving bijection of (F_q^n, spec) by search.

    The bitset search (`_search`) places only images whose distances to
    every image placed so far match.  Each found bijection is then
    classified through `decompose`: success means axial, failure is
    recorded with its witness.  Guarded by q**n <= cap (default
    DEFAULT_SPACE_CAP, or DEFAULT_ULTRAMETRIC_SPACE_CAP for the ultrametric
    sup and weighted sup norms).
    """
    if spec is None:
        spec = NormSpec.one()
    require_type("norm", spec, NormSpec)
    require_type("centred flag", centred, bool)
    if cap is None:
        cap = DEFAULT_ULTRAMETRIC_SPACE_CAP if spec.ultrametric else DEFAULT_SPACE_CAP
    EnumerationTooLargeError.check(q, n, cap, f"F_{q}^{n}")
    points, code, _ = _space(q, n, spec)
    # lexicographic order puts the origin first; centred pins it
    perms, attempts = _search(code, [0] if centred else [])

    result = EnumerationResult(
        q=q, n=n, norm=spec, centred=centred, points=tuple(points),
        isometries=tuple(perms), attempts=attempts, axial=0)
    for perm in perms:
        try:
            decompose(result.probe_map(perm))
            result.axial += 1
        except (DecompositionError, UnderdeterminedError) as exc:
            result.non_axial_witnesses.append({"map": list(perm), "reason": str(exc)})
    return result


class BetweennessReport:
    """Exhaustive check that metric and coordinate betweenness coincide."""

    __slots__ = ("q", "n", "triples", "mismatches", "first_mismatches")

    def __init__(self, q: int, n: int):
        require_type("field size", q, int)
        require_type("dimension", n, int)
        self.q, self.n, self.triples, self.mismatches = q, n, q ** (3 * n), 0
        self.first_mismatches: list = []

    @property
    def ok(self) -> bool:
        return self.mismatches == 0

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "triples": self.triples,
            "mismatches": self.mismatches,
            "ok": self.ok,
            "witnesses": list(self.first_mismatches),
        }


def exhaustive_betweenness_check(q: int, n: int,
                                 cap: int | None = None) -> BetweennessReport:
    """Check metric against coordinate betweenness on every (x, z, y) in F_q^n.

    The exhaustive run is itself the ground truth: the report counts
    disagreements (expected 0) over all q**(3n) triples, in x, z, y order.
    Each (x, z) pair builds two bitsets over y and walks no y.  The metric
    set, the y with d(x, y) = d(x, z) + d(z, y), is the union of ball[x][k]
    & ball[z][b] (`_balls`, over one coded table of the (q**n)**2 one-norm
    distances) for the (k, b) in plus[code(x, z)]: plus[a] pairs each code b
    with the code k of value a + value b, where that sum is a distance.  The
    coordinate set is the intersection of same[i][z_i], the y with
    y_i = z_i, over the i where x and z differ.  The triples that disagree
    are the bits of the two sets' XOR.
    """
    require_type("dimension", n, int)
    EnumerationTooLargeError.check(q, 3 * n, DEFAULT_TRIPLE_CAP if cap is None else cap,
                                   f"triples of F_{q}^{n}")
    points, code, codes = _space(q, n, NormSpec.one())
    plus = [[(codes[a + d], b) for b, d in enumerate(codes) if a + d in codes] for a in codes]
    ball, raw = _balls(code), [point._raw_values() for point in points]
    same: list[dict] = [{} for _ in range(n)]
    for p, values in enumerate(raw):
        for i, v in enumerate(values):
            same[i][v] = same[i].get(v, 0) | 1 << p
    everywhere = (1 << len(points)) - 1
    report = BetweennessReport(q=q, n=n)
    for x, xv, bx, cx in zip(points, raw, ball, code):
        for z, zv, bz, cxz in zip(points, raw, ball, cx):
            metric = 0
            for k, b in plus[cxz]:
                metric |= bx[k] & bz[b]
            coord = everywhere
            for column, a, c in zip(same, xv, zv):
                if a != c:
                    coord &= column[c]
            diff = metric ^ coord
            report.mismatches += diff.bit_count()
            while diff and len(report.first_mismatches) < WITNESS_LIMIT:
                y = (diff & -diff).bit_length() - 1
                diff &= diff - 1
                report.first_mismatches.append(
                    {"x": str(x), "z": str(z), "y": str(points[y]),
                     "metric": bool(metric >> y & 1), "coordinate": bool(coord >> y & 1)})
    return report
