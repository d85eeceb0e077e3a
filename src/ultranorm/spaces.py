"""Vectors over a valued field and the norms studied here.

Three norms: the taxicab norm ||x||_1 = sum of coordinate valuations, the
sup norm ||x||_inf = max of coordinate valuations, and the weighted sup norm
max_i w_i |x_i| with strictly positive rational weights.  The sup variants
are ultrametric (strong triangle inequality); the taxicab norm is not once
the dimension exceeds 1, which is the whole point of this package.

Every norm is read off the exponents e_i, |x_i - y_i| = p**e_i, and reduced
to an exact key that is equal exactly when the norms are
(`_difference_key`).  Each scalar keeps its own exponent, and
|x_i - y_i| = max(|x_i|, |y_i|) whenever |x_i| != |y_i| (the isosceles
property, `_pair_exponent`), so only coordinates of equal |.| go through the
integer formula of `fields._exponent`: over gf:q and trivial:q, pairs of
nonzero values.  `distance` and `norm` build one Fraction per result from
the key; callers that only compare norms compare keys and build none, as
`is_metrically_between` does with its three one-norm keys.  `_key_rows`
gives the keys of every pair of a point set as integer rows, one row per
point and one exponent per distinct coordinate value after it, for
`verify_isometry` and `TableMap`'s metric check.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from fractions import Fraction

from .errors import (
    DEFAULT_ENUM_CAP,
    DimensionMismatchError,
    EnumerationTooLargeError,
    FieldMismatchError,
    InvalidInputError,
    ParseError,
    quoted,
    require_type,
)
from .fields import (GF, AxiomReport, FieldSpec, Magnitude, Scalar, _check_samples, _Immutable,
                     _exponent, _rational, valuation)

ONE = "one"
SUP = "sup"
WSUP = "wsup"


class Vector(_Immutable):
    """An n-tuple of scalars over a fixed field, n >= 1. Immutable; the raw
    values (each coordinate's `Scalar.value`, an int residue or a Fraction,
    which `decompose` compares) are computed on first use and kept.  The
    constructor checks every coordinate; `segment` and `enumerate_space`
    build their points with `_each` from scalars already checked."""

    __slots__ = ("field", "coords", "_raw")

    def __init__(self, field: FieldSpec, coords: tuple[Scalar, ...]):
        if type(coords) is not tuple or not coords:   # the fast test
            if not coords:
                raise InvalidInputError("vectors have dimension >= 1")
            require_type("vector coords", coords, tuple)
        for c in coords:
            if type(c) is not Scalar or c.field is not field:   # the fast test
                require_type("vector field", field, FieldSpec)
                require_type("vector coordinate", c, Scalar)
                raise FieldMismatchError(f"coordinate from {c.field} in {field} vector")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", coords)

    @classmethod
    def _each(cls, field: FieldSpec, tuples) -> list["Vector"]:
        """One Vector per coordinate tuple, with no check: each tuple must be
        a nonempty tuple of `field`'s own Scalars."""
        new, put = object.__new__, object.__setattr__
        points = []
        for coords in tuples:
            point = new(cls)
            put(point, "field", field)
            put(point, "coords", coords)
            points.append(point)
        return points

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return self.field is other.field and self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.field, self.coords))

    def _raw_values(self) -> tuple:
        try:
            return self._raw
        except AttributeError:
            object.__setattr__(self, "_raw", tuple(c.value for c in self.coords))
            return self._raw

    @classmethod
    def make(cls, field: FieldSpec, values) -> "Vector":
        require_type("vector field", field, FieldSpec)
        require_type("vector values", values, list, tuple)
        return cls(field, tuple(field.scalar(v) for v in values))

    @classmethod
    def zero(cls, field: FieldSpec, n: int) -> "Vector":
        require_type("dimension", n, int)
        return cls.make(field, [0] * n)

    @classmethod
    def parse(cls, field: FieldSpec, text: str) -> "Vector":
        """Parse the comma-separated form, e.g. "9,1/3"."""
        require_type("vector literal", text, str)
        parts = text.split(",")
        if not any(p.strip() for p in parts):
            raise ParseError(f"empty vector literal {quoted(text)}")
        return cls.make(field, parts)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def _check(self, other: "Vector") -> None:
        """Refuse operands that are not Vectors of one field and dimension;
        `Vector._check(x, y)` tests an x from outside as well."""
        if type(self) is not Vector or type(other) is not Vector or other.field is not self.field:
            require_type("vector operand", self, Vector)
            require_type("vector operand", other, Vector)
            raise FieldMismatchError(f"mixing {self.field} with {other.field}")
        if len(other.coords) != len(self.coords):
            raise DimensionMismatchError(f"dimension {self.dim} vs {other.dim}")

    def __add__(self, other: "Vector") -> "Vector":
        self._check(other)
        return Vector(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check(other)
        return Vector(self.field, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Vector":
        return Vector(self.field, tuple(-a for a in self.coords))

    def scale(self, lam: Scalar) -> "Vector":
        """lam * self; a lam from another field fails in Scalar._check."""
        require_type("scale factor", lam, Scalar)
        return Vector(self.field, tuple(lam * a for a in self.coords))

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coords)

    def __repr__(self) -> str:
        return f"Vector({self.field}, {self})"


class NormSpec(_Immutable):
    """Which norm to evaluate: "one", "sup", or "wsup" with positive Fraction weights."""

    __slots__ = ("kind", "weights")

    def __init__(self, kind: str, weights: tuple[Fraction, ...] | None = None):
        if kind not in (ONE, SUP, WSUP):
            raise InvalidInputError(f"unknown norm kind {kind!r}")
        if kind == WSUP:
            if not weights:
                raise InvalidInputError("weighted sup norm needs weights")
            require_type("weights", weights, list, tuple)
            for w in weights:
                if type(w) not in (int, Fraction):   # as for Scalar: no float, no bool
                    raise ParseError(f"{type(w).__name__} {quoted(w)} is not an exact weight")
            weights = tuple(Fraction(w) for w in weights)
            if any(w <= 0 for w in weights):
                raise InvalidInputError("weights must be strictly positive")
        elif weights is not None:
            raise InvalidInputError(f"{kind} norm takes no weights")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def one(cls) -> "NormSpec":
        return cls(ONE)

    @classmethod
    def sup(cls) -> "NormSpec":
        return cls(SUP)

    @classmethod
    def weighted_sup(cls, weights) -> "NormSpec":
        return cls(WSUP, weights)

    @classmethod
    def parse(cls, text: str) -> "NormSpec":
        """Parse "one", "sup", or "wsup:w1,w2,..."."""
        if not isinstance(text, str):
            raise ParseError(f"norm tag must be a string, got {quoted(text)}")
        head, sep, tail = text.strip().partition(":")
        if head in (ONE, SUP) and not sep:
            return cls(head)
        if head == WSUP and sep:
            try:
                return cls.weighted_sup([_rational(w) for w in tail.split(",")])
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad weight list {quoted(tail)}") from None
        raise ParseError(f"bad norm tag {quoted(text)} (expected one, sup or wsup:w1,w2,...)")

    @property
    def ultrametric(self) -> bool:
        return self.kind in (SUP, WSUP)

    def __str__(self) -> str:
        if self.kind == WSUP:
            return "wsup:" + ",".join(str(w) for w in self.weights)
        return self.kind


def norm(v: Vector, spec: NormSpec) -> Magnitude:
    """Exact norm value of v under spec: its distance from the origin."""
    Vector._check(v, v)   # refuses a v that is not a Vector
    require_type("norm", spec, NormSpec)
    return _key_value(_difference_key(v, itertools.repeat(v.field.zero), spec), v.field._p, spec)


def distance(x: Vector, y: Vector, spec: NormSpec) -> Magnitude:
    """d(x, y) = ||x - y||; exact, symmetric, zero iff x = y."""
    Vector._check(x, y)
    if type(spec) is not NormSpec:   # the fast test
        require_type("norm", spec, NormSpec)
    return _key_value(_difference_key(x, y.coords, spec), x.field._p, spec)


def _pair_exponent(a, ea, b, eb, p: int) -> int | None:
    """e with |a - b| = p**e for raw values a and b of one field whose kept
    exponents (`Scalar._abs_exponent`, None at zero) are ea and eb; None when
    a = b.  Where ea != eb, e is the larger one (the isosceles property), over
    every field: over gf:q and trivial:q they are 0 or None, so only two
    nonzero values reach `_exponent`.  The norm keys and `_key_rows` read
    every exponent of a difference here."""
    if ea != eb:
        return eb if ea is None else ea if eb is None or ea > eb else eb
    return None if ea is None else _exponent(a, b, p)


def _difference_key(x: Vector, ys, spec: NormSpec):
    """An exact key of ||x - y|| from the exponents e_i = `_pair_exponent` of
    x_i and y_i, equal exactly when the norms are; None when x = y.

    The one-norm's key is (total, lo), worth total * p**lo, with p not
    dividing total when p > 1; the sup norm's is the largest e; the
    weighted sup norm's, whose weights are rationals, is the norm itself.
    """
    if spec.kind == WSUP and len(spec.weights) != x.dim:
        raise DimensionMismatchError(
            f"{len(spec.weights)} weights for dimension {x.dim}")
    p = x.field._p
    exps = {}   # coordinate index -> e, where a != b
    for i, (a, b) in enumerate(zip(x.coords, ys)):
        if a is not b:   # enumerated points share field.elements(), apply plans their images
            e = _pair_exponent(a.value, a._abs_exponent(), b.value, b._abs_exponent(), p)
            if e is not None:
                exps[i] = e
    if not exps:
        return None
    if spec.kind == ONE:   # the sum over the common denominator p**-lo
        lo = min(exps.values())
        total = sum(p ** (e - lo) for e in exps.values())
        while p > 1 and total % p == 0:   # a carry
            total //= p
            lo += 1
        return total, lo
    if spec.kind == SUP:
        return max(exps.values())
    return max(spec.weights[i] * Fraction(p) ** e for i, e in exps.items())


def _key_rows(sides, p: int, spec: NormSpec):
    """Row by row, integer keys of the pairwise norms of point sets (sides) of
    one size N and dimension n, each given as its n columns of `Scalar`s.

    Row k < N - 1 holds one list per side whose entry j - k - 1 stands for
    ||x_k - x_j||, j > k: the sides' entries compare as their norms do, and
    an entry is 0 exactly when the points are equal.  A coordinate's points
    fall into classes of equal raw value, and row k reads `_pair_exponent`
    once per class occurring after k.  Each e becomes w * p**(e - lo), with
    lo the least e of the row on every side and w 1, or under wsup the
    weight times the weights' common denominator; a C-level `map` spreads it
    to the class's points, and the coordinates add under the one-norm and
    take the larger under sup and wsup.  Memory is O(N * n).  A wsup weight
    count other than n is refused once there is a pair.
    """
    n, size = len(sides[0]), len(sides[0][0])
    if size < 2:
        return
    if spec.kind == WSUP:
        if len(spec.weights) != n:
            raise DimensionMismatchError(f"{len(spec.weights)} weights for dimension {n}")
        scale = math.lcm(*(w.denominator for w in spec.weights))
        weights = [w.numerator * (scale // w.denominator) for w in spec.weights]
    else:
        weights = [1] * n
    combine = operator.add if spec.kind == ONE else max
    coordinates = []   # per side, per coordinate: what row k reads of its classes
    for columns in sides:
        coordinates.append(side := [])
        for column, weight in zip(columns, weights):
            index = {}   # raw value -> class
            classes = [index.setdefault(c.value, len(index)) for c in column]
            last = {b: j for j, b in enumerate(classes)}   # each class's last position
            order = sorted(last, key=last.__getitem__)   # so the classes after k are a suffix
            rank = dict(zip(order, range(len(order))))
            reps = [column[last[b]] for b in order]
            side.append(([rank[b] for b in classes], [last[b] for b in order],
                         [c.value for c in reps], [c._abs_exponent() for c in reps], weight))
    ps = itertools.repeat(p)
    for k in range(size - 1):
        found = []   # per side and coordinate: where the classes after k start, and the e
        for side in coordinates:   # of each of them against x_k's class, that one left out
            for ranks, lasts, values, exps, _ in side:
                start, r = bisect.bisect_right(lasts, k), ranks[k]
                vs, es = values[start:], exps[start:]
                if r >= start:
                    del vs[r - start], es[r - start]
                found.append((start, list(map(_pair_exponent, itertools.repeat(values[r]),
                                              itertools.repeat(exps[r]), vs, es, ps))))
        lo = min([min(es) for _, es in found if es], default=0)
        rows, parts = [], iter(found)
        for side in coordinates:
            row = None
            for (ranks, _, _, _, weight), (start, es) in zip(side, parts):
                keys = [0] * start   # the classes that end by k, never read
                keys += [weight * p ** (e - lo) for e in es]
                if ranks[k] >= start:
                    keys.insert(ranks[k], 0)
                column = map(keys.__getitem__, ranks[k + 1:])
                row = column if row is None else map(combine, row, column)
            rows.append(list(row))
        yield rows


def _key_value(key, p: int, spec: NormSpec) -> Magnitude:
    """The norm whose `_difference_key` is key."""
    if key is None:
        return Fraction(0)
    if spec.kind == ONE:
        total, lo = key
        return Fraction(total, p ** -lo) if lo < 0 else Fraction(total * p ** lo)
    if spec.kind == SUP:
        return Fraction(p) ** key
    return key


def valuation_profile(v: Vector) -> tuple[Magnitude, ...]:
    """The tuple of coordinate valuations (what absolute norms depend on)."""
    Vector._check(v, v)   # refuses a v that is not a Vector
    return tuple(valuation(c) for c in v.coords)


def enumerate_space(field: FieldSpec, n: int) -> list[Vector]:
    """All q**n <= DEFAULT_ENUM_CAP vectors of F_q^n in lexicographic coordinate order."""
    require_type("field", field, FieldSpec)
    require_type("dimension", n, int)
    if field.kind != GF:
        raise InvalidInputError(f"cannot enumerate infinite space over {field}")
    if n < 1:
        raise InvalidInputError(f"dimension n must be at least 1, got {n}")
    EnumerationTooLargeError.check(field.prime, n, DEFAULT_ENUM_CAP, f"F_{field.prime}^{n}")
    return Vector._each(field, itertools.product(field.elements(), repeat=n))


def check_norm_axioms(spec: NormSpec, field: FieldSpec, samples) -> AxiomReport:
    """Verify the norm axioms on sample triples (x, y, lam).

    Checked per triple, all exactly: definiteness (||x|| = 0 iff x = 0),
    homogeneity ||lam x|| = |lam| ||x||, the triangle inequality, the strong
    triangle inequality for the sup variants, and absoluteness: when x and y
    have equal coordinate-wise valuations their norms agree.  A sample from
    another field than `field` is refused as a field mismatch.
    """
    require_type("norm", spec, NormSpec)
    require_type("field", field, FieldSpec)
    _check_samples("norm", samples, 3)
    report = AxiomReport(subject=f"{spec} over {field}")
    zero_mag, zero = Fraction(0), field.zero
    for x, y, lam in samples:
        Vector._check(x, y)
        zero._check(x.coords[0])   # x.scale(lam) checks lam against x
        nx, ny = norm(x, spec), norm(y, spec)
        report.record((nx == zero_mag) == all(c.is_zero for c in x.coords),
                      "definiteness", (x,), f"||x||={nx}")
        scaled = norm(x.scale(lam), spec)
        report.record(scaled == valuation(lam) * nx, "homogeneity", (lam, x),
                      f"||lam x||={scaled} vs |lam| ||x||={valuation(lam) * nx}")
        nsum = norm(x + y, spec)
        report.record(nsum <= nx + ny, "triangle", (x, y),
                      f"||x+y||={nsum} > {nx + ny}")
        if spec.ultrametric:
            report.record(nsum <= max(nx, ny), "strong-triangle", (x, y),
                          f"||x+y||={nsum} > max={max(nx, ny)}")
        if valuation_profile(x) == valuation_profile(y):
            report.record(nx == ny, "absoluteness", (x, y),
                          f"equal profiles but ||x||={nx}, ||y||={ny}")
    return report
