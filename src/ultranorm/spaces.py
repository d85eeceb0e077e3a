"""Vectors over a valued field and the norms studied here.

Three norms: the taxicab norm ||x||_1 = sum of coordinate valuations, the
sup norm ||x||_inf = max of coordinate valuations, and the weighted sup norm
max_i w_i |x_i| with strictly positive rational weights.  The sup variants
are ultrametric (strong triangle inequality); the taxicab norm is not once
the dimension exceeds 1, which is the whole point of this package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    InvalidInputError,
    ParseError,
)
from .fields import GF, AxiomReport, FieldSpec, Magnitude, Scalar, valuation

ONE = "one"
SUP = "sup"
WSUP = "wsup"


@dataclass(frozen=True)
class Vector:
    """An n-tuple of scalars over a fixed field, n >= 1. Immutable."""

    field: FieldSpec
    coords: tuple[Scalar, ...]

    def __post_init__(self):
        if not self.coords:
            raise InvalidInputError("vectors have dimension >= 1")
        for c in self.coords:
            if c.field != self.field:
                raise FieldMismatchError(f"coordinate from {c.field} in {self.field} vector")

    @classmethod
    def make(cls, field: FieldSpec, values) -> "Vector":
        return cls(field, tuple(field.scalar(v) for v in values))

    @classmethod
    def zero(cls, field: FieldSpec, n: int) -> "Vector":
        return cls.make(field, [0] * n)

    @classmethod
    def parse(cls, field: FieldSpec, text: str) -> "Vector":
        """Parse the comma-separated form, e.g. "9,1/3"."""
        parts = text.split(",")
        if not any(p.strip() for p in parts):
            raise ParseError(f"empty vector literal {text!r}")
        return cls.make(field, parts)

    @classmethod
    def from_json(cls, obj) -> "Vector":
        """Decode {"field": "padic:3", "coords": ["9", "1/3"]}."""
        try:
            field = FieldSpec.parse(obj["field"])
            coords = obj["coords"]
        except (KeyError, TypeError):
            raise ParseError(f"bad vector object {obj!r}") from None
        if not isinstance(coords, (list, tuple)):
            raise ParseError(f"vector coords must be a list, got {coords!r}")
        return cls.make(field, coords)

    def to_json(self) -> dict:
        return {"field": str(self.field), "coords": [str(c) for c in self.coords]}

    @property
    def dim(self) -> int:
        return len(self.coords)

    def _check(self, other: "Vector") -> None:
        if other.field != self.field:
            raise FieldMismatchError(f"mixing {self.field} with {other.field}")
        if other.dim != self.dim:
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
        if lam.field != self.field:
            raise FieldMismatchError(f"scalar from {lam.field} scaling {self.field} vector")
        return Vector(self.field, tuple(lam * a for a in self.coords))

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coords)

    def __repr__(self) -> str:
        return f"Vector({self.field}, {self})"


@dataclass(frozen=True)
class NormSpec:
    """Which norm to evaluate: "one", "sup", or "wsup" with positive weights."""

    kind: str
    weights: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        if self.kind not in (ONE, SUP, WSUP):
            raise InvalidInputError(f"unknown norm kind {self.kind!r}")
        if self.kind == WSUP:
            if not self.weights:
                raise InvalidInputError("weighted sup norm needs weights")
            if any(w <= 0 for w in self.weights):
                raise InvalidInputError("weights must be strictly positive")
        elif self.weights is not None:
            raise InvalidInputError(f"{self.kind} norm takes no weights")

    @classmethod
    def one(cls) -> "NormSpec":
        return cls(ONE)

    @classmethod
    def sup(cls) -> "NormSpec":
        return cls(SUP)

    @classmethod
    def weighted_sup(cls, weights) -> "NormSpec":
        return cls(WSUP, tuple(Fraction(w) for w in weights))

    @classmethod
    def parse(cls, text: str) -> "NormSpec":
        """Parse "one", "sup", or "wsup:w1,w2,..."."""
        if not isinstance(text, str):
            raise ParseError(f"norm tag must be a string, got {text!r}")
        head, sep, tail = text.strip().partition(":")
        if head in (ONE, SUP) and not sep:
            return cls(head)
        if head == WSUP and sep:
            try:
                return cls.weighted_sup(Fraction(w) for w in tail.split(","))
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad weight list {tail!r}") from None
        raise ParseError(f"bad norm tag {text!r} (expected one, sup or wsup:w1,w2,...)")

    @property
    def ultrametric(self) -> bool:
        return self.kind in (SUP, WSUP)

    def __str__(self) -> str:
        if self.kind == WSUP:
            return "wsup:" + ",".join(str(w) for w in self.weights)
        return self.kind


def norm(v: Vector, spec: NormSpec) -> Magnitude:
    """Exact norm value of v under spec."""
    vals = [valuation(c) for c in v.coords]
    if spec.kind == ONE:
        return sum(vals, Fraction(0))
    if spec.kind == SUP:
        return max(vals)
    if len(spec.weights) != v.dim:
        raise DimensionMismatchError(
            f"{len(spec.weights)} weights for dimension {v.dim}")
    return max(w * val for w, val in zip(spec.weights, vals))


def distance(x: Vector, y: Vector, spec: NormSpec) -> Magnitude:
    """d(x, y) = ||x - y||; exact, symmetric, zero iff x = y."""
    return norm(x - y, spec)


def valuation_profile(v: Vector) -> tuple[Magnitude, ...]:
    """The tuple of coordinate valuations (what absolute norms depend on)."""
    return tuple(valuation(c) for c in v.coords)


def enumerate_space(field: FieldSpec, n: int) -> list[Vector]:
    """All q**n vectors of F_q^n in lexicographic coordinate order."""
    if field.kind != GF:
        raise InvalidInputError(f"cannot enumerate infinite space over {field}")
    if n < 1:
        raise InvalidInputError(f"dimension n must be at least 1, got {n}")
    return [
        Vector(field, tuple(Scalar(field, r) for r in coords))
        for coords in itertools.product(range(field.prime), repeat=n)
    ]


def check_norm_axioms(spec: NormSpec, field: FieldSpec, samples) -> AxiomReport:
    """Verify the norm axioms on sample triples (x, y, lam).

    Checked per triple, all exactly: definiteness (||x|| = 0 iff x = 0),
    homogeneity ||lam x|| = |lam| ||x||, the triangle inequality, the strong
    triangle inequality for the sup variants, and absoluteness: when x and y
    have equal coordinate-wise valuations their norms agree.
    """
    report = AxiomReport(subject=f"{spec} over {field}")
    zero_mag = Fraction(0)
    for x, y, lam in samples:
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
