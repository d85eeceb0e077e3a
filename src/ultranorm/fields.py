"""Exact arithmetic in valued fields and exact evaluation of their valuations.

Three kinds of field are supported, all with ultrametric valuations:

* ``padic:p``   — the rationals carrying the p-adic valuation |p| = 1/p,
* ``gf:q``      — the prime field F_q with the trivial valuation,
* ``trivial:q`` — the rationals with the trivial valuation (|x| = 1 for x != 0).

Rationals are stored as exact ``fractions.Fraction`` values (a dense subfield
of the p-adic completion, enough for every exact-distance statement this
package makes); finite-field elements are residues in [0, q).  Valuation and
norm values are exact nonnegative rationals, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import FieldMismatchError, InvalidInputError, ParseError

# Norm/valuation values: exact nonnegative rationals, closed under + and max.
Magnitude = Fraction

PADIC = "padic"
GF = "gf"
TRIVIAL = "trivial"

_KINDS = (PADIC, GF, TRIVIAL)


# Moduli are bounded so that trial division takes at most 2^16 steps.
_MAX_MODULUS = 2 ** 32


def is_prime(n: int) -> bool:
    """Trial-division primality check (moduli are at most _MAX_MODULUS)."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A field together with its (ultrametric) valuation.

    ``prime`` is p for the p-adic rationals, q for F_q, and None for the
    trivially-valued rationals.
    """

    kind: str
    prime: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidInputError(f"unknown field kind {self.kind!r}")
        if self.kind == TRIVIAL:
            if self.prime is not None:
                raise InvalidInputError("trivial-valuation rationals take no modulus")
        else:
            if self.prime is not None and self.prime > _MAX_MODULUS:
                raise InvalidInputError(
                    f"{self.kind} modulus {self.prime} exceeds the bound 2^32")
            if self.prime is None or not is_prime(self.prime):
                raise InvalidInputError(f"{self.kind} modulus must be prime, got {self.prime}")

    @classmethod
    def padic(cls, p: int) -> "FieldSpec":
        return cls(PADIC, p)

    @classmethod
    def gf(cls, q: int) -> "FieldSpec":
        return cls(GF, q)

    @classmethod
    def trivial(cls) -> "FieldSpec":
        return cls(TRIVIAL)

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        """Parse the textual forms "padic:3", "gf:5", "trivial:q"."""
        if not isinstance(text, str):
            raise ParseError(f"field tag must be a string, got {text!r}")
        head, sep, tail = text.strip().partition(":")
        if head == TRIVIAL and (not sep or tail == "q"):
            return cls.trivial()
        if head in (PADIC, GF) and sep:
            try:
                modulus = int(tail)
            except ValueError:
                raise ParseError(f"bad field modulus {tail!r} in {text!r}") from None
            try:
                return cls(head, modulus)
            except InvalidInputError as exc:
                raise ParseError(str(exc)) from None
        raise ParseError(f"bad field tag {text!r} (expected padic:p, gf:q or trivial:q)")

    def __str__(self) -> str:
        if self.kind == TRIVIAL:
            return "trivial:q"
        return f"{self.kind}:{self.prime}"

    # -- element construction -------------------------------------------------

    def scalar(self, value) -> "Scalar":
        """Coerce a Scalar of this field, a string token, or a value Scalar accepts."""
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatchError(f"scalar from {value.field} used in {self}")
            return value
        if isinstance(value, str):
            token = value.strip()
            try:
                value = int(token) if self.kind == GF else Fraction(token)
            except (ValueError, ZeroDivisionError):
                what = "residue" if self.kind == GF else "rational"
                raise ParseError(f"bad {what} {token!r} for {self}") from None
        return Scalar(self, value)

    @property
    def zero(self) -> "Scalar":
        return self.scalar(0)

    @property
    def one(self) -> "Scalar":
        return self.scalar(1)

    def elements(self):
        """All field elements, finite fields only."""
        if self.kind != GF:
            raise InvalidInputError(f"{self} is infinite")
        return [Scalar(self, r) for r in range(self.prime)]


@dataclass(frozen=True, init=False)
class Scalar:
    """An element of a FieldSpec's field.

    ``value`` is a Fraction in lowest terms for the rational fields and an
    int residue in [0, q) for F_q.  The constructor normalises every value:
    an int or a Fraction (over F_q an integral one) is converted or reduced,
    any other type (float, bool, str, ...) is a ParseError.  Instances are
    immutable and hashable.
    """

    field: FieldSpec
    value: Fraction | int

    def __init__(self, field: FieldSpec, value):
        kind = type(value)
        if kind is int:
            value = value % field.prime if field.kind == GF else Fraction(value)
        elif kind is Fraction:
            if field.kind == GF:
                if value.denominator != 1:
                    raise ParseError(f"non-integer value {value} in {field}")
                value = value.numerator % field.prime
        else:
            raise ParseError(f"{kind.__name__} {value!r} is not an exact scalar of {field}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def _check(self, other: "Scalar") -> None:
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatchError(f"mixing {self.field} with {other.field}")

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.field, self.value + other.value)

    def __sub__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.field, self.value - other.value)

    def __neg__(self) -> "Scalar":
        return Scalar(self.field, -self.value)

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.field, self.value * other.value)

    def inverse(self) -> "Scalar":
        """Multiplicative inverse; raises ZeroDivisionError at zero."""
        if self.is_zero:
            raise ZeroDivisionError(f"0 has no inverse in {self.field}")
        if self.field.kind == GF:
            return Scalar(self.field, pow(self.value, -1, self.field.prime))
        return Scalar(self.field, 1 / self.value)

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"Scalar({self.field}, {self.value})"


def _multiplicity(n: int, p: int) -> int:
    """Exponent of p in n (n != 0), by repeated exact division."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation(a: Scalar) -> Magnitude:
    """|a| as an exact nonnegative rational.

    p-adic: p**(-v) where v is the multiplicity of p in the numerator minus
    the multiplicity in the denominator.  Trivial and finite-field cases: 1
    for nonzero, 0 for zero.
    """
    if a.is_zero:
        return Fraction(0)
    if a.field.kind != PADIC:
        return Fraction(1)
    p = a.field.prime
    v = _multiplicity(a.value.numerator, p) - _multiplicity(a.value.denominator, p)
    return Fraction(p) ** (-v)


# -- axiom verification -------------------------------------------------------


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    operands: tuple[str, ...]
    detail: str

    def to_json_dict(self) -> dict:
        return {"axiom": self.axiom, "operands": list(self.operands), "detail": self.detail}


@dataclass
class AxiomReport:
    """Outcome of an axiom sweep: violations are content, not exceptions."""

    subject: str
    checks: int = 0
    violations: list[AxiomViolation] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def record(self, passed: bool, axiom: str, operands: tuple, detail: str = "") -> None:
        self.checks += 1
        if not passed:
            self.violations.append(
                AxiomViolation(axiom, tuple(str(o) for o in operands), detail)
            )

    def to_json_dict(self) -> dict:
        return {
            "subject": self.subject,
            "checks": self.checks,
            "ok": self.ok,
            "violations": [v.to_json_dict() for v in self.violations],
        }


def check_valuation_axioms(spec: FieldSpec, samples) -> AxiomReport:
    """Verify the valuation axioms on every sample pair.

    ``samples`` is an iterable of (a, b) Scalar pairs from ``spec``.  Checked
    per pair: |ab| = |a||b|, the ultrametric bound |a+b| <= max(|a|, |b|),
    the isosceles refinement (equality whenever |a| != |b|), and per element
    that |a| = 0 exactly at a = 0.  All comparisons are exact.
    """
    report = AxiomReport(subject=str(spec))
    for a, b in samples:
        va, vb = valuation(a), valuation(b)
        vsum = valuation(a + b)
        vprod = valuation(a * b)
        report.record(vprod == va * vb, "multiplicativity", (a, b),
                      f"|ab|={vprod} vs |a||b|={va * vb}")
        report.record(vsum <= max(va, vb), "ultrametric", (a, b),
                      f"|a+b|={vsum} > max={max(va, vb)}")
        if va != vb:
            report.record(vsum == max(va, vb), "isosceles", (a, b),
                          f"|a+b|={vsum} != max={max(va, vb)}")
        for elem, v in ((a, va), (b, vb)):
            report.record((v == 0) == elem.is_zero, "definiteness", (elem,),
                          f"|x|={v}")
    return report
