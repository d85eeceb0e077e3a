"""Exact arithmetic in valued fields and exact evaluation of their valuations.

Three kinds of field are supported, all with ultrametric valuations:

* ``padic:p``   — the rationals carrying the p-adic valuation |p| = 1/p,
* ``gf:q``      — the prime field F_q with the trivial valuation,
* ``trivial:q`` — the rationals with the trivial valuation (|x| = 1 for x != 0).

Rationals are stored as exact ``fractions.Fraction`` values (a dense subfield
of the p-adic completion, enough for every exact-distance statement this
package makes); finite-field elements are residues in [0, q).  Valuation and
norm values are exact nonnegative rationals, never floats.

Every exponent e with |a - b| = p**e comes from integers in one place,
`_exponent`.  Each scalar keeps its e = `_exponent(a, 0)` on first use, over
every field, so `valuation` and the norm keys compute it once per scalar.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import FieldMismatchError, InvalidInputError, ParseError, quoted, require_type

# Norm/valuation values: exact nonnegative rationals, closed under + and max.
Magnitude = Fraction

PADIC = "padic"
GF = "gf"
TRIVIAL = "trivial"

_KINDS = (PADIC, GF, TRIVIAL)

# (kind, prime) -> the one FieldSpec of that field; only valid specs enter.
_INTERNED: dict[tuple[str, int | None], "FieldSpec"] = {}


# A rational literal's decimal exponent, as `Fraction` reads it.
_EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _rational(token: str) -> Fraction:
    """Fraction(token), refused as a parse error when the token's decimal
    exponent exceeds the int -> str digit limit in magnitude: `Fraction` would
    spend time and memory that grow with the exponent on a value no output
    could print."""
    match = _EXPONENT.search(token)
    # 4300 is CPython's default limit: releases before 3.10.7 have none to read
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
    if match and limit and (len(match[1]) > limit or int(match[1]) > limit):
        raise ParseError(f"exponent of {quoted(token)} is past the {limit}-digit limit")
    return Fraction(token)


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


class _Immutable:
    """Base of every value class: no attribute can be assigned or deleted.

    The public slots (no leading underscore) are the constructor's arguments,
    in order.  Equality, hash, repr and pickling read them, so pickle and
    copy rebuild through the constructor and a FieldSpec comes back interned.
    """

    __slots__ = ()

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = (f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_")
        return f"{type(self).__name__}({', '.join(args)})"

    def __reduce__(self):
        return type(self), self._values()


class FieldSpec(_Immutable):
    """A field together with its (ultrametric) valuation.

    ``prime`` is p for the p-adic rationals, q for F_q, and None for the
    trivially-valued rationals.  Immutable and interned: two specs of one
    field are the same object, so F_q's element tuple is built once.
    """

    __slots__ = ("kind", "prime", "_q", "_p", "_elements")

    def __new__(cls, kind: str, prime: int | None = None) -> "FieldSpec":
        if kind not in _KINDS:
            raise InvalidInputError(f"unknown field kind {kind!r}")
        if kind == TRIVIAL:
            if prime is not None:
                raise InvalidInputError("trivial-valuation rationals take no modulus")
        elif type(prime) is not int:   # a float or bool would share the int's entry
            raise InvalidInputError(f"{kind} modulus must be an int, got {quoted(prime)}")
        elif (kind, prime) not in _INTERNED:
            if prime > _MAX_MODULUS:
                raise InvalidInputError(f"{kind} modulus {quoted(prime)} exceeds the bound 2^32")
            if not is_prime(prime):
                raise InvalidInputError(f"{kind} modulus must be prime, got {prime}")
        spec = _INTERNED.get((kind, prime))
        if spec is None:
            spec = object.__new__(cls)
            object.__setattr__(spec, "kind", kind)
            object.__setattr__(spec, "prime", prime)
            object.__setattr__(spec, "_q", prime if kind == GF else 0)   # the modulus Scalar reads
            object.__setattr__(spec, "_p", prime if kind == PADIC else 1)   # |a| = p**e for a != 0
            spec = _INTERNED.setdefault((kind, prime), spec)   # one winner if threads race
        return spec

    __eq__ = object.__eq__   # interned: equal specs are one object
    __hash__ = object.__hash__

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
            raise ParseError(f"field tag must be a string, got {quoted(text)}")
        head, sep, tail = text.strip().partition(":")
        if head == TRIVIAL and (not sep or tail == "q"):
            return cls.trivial()
        if head in (PADIC, GF) and sep:
            try:
                modulus = int(tail)
            except ValueError:
                raise ParseError(f"bad field modulus {quoted(tail)} in {quoted(text)}") from None
            try:
                return cls(head, modulus)
            except InvalidInputError as exc:
                raise ParseError(str(exc)) from None
        raise ParseError(f"bad field tag {quoted(text)} (expected padic:p, gf:q or trivial:q)")

    def __str__(self) -> str:
        if self.kind == TRIVIAL:
            return "trivial:q"
        return f"{self.kind}:{self.prime}"

    # -- element construction -------------------------------------------------

    def scalar(self, value) -> "Scalar":
        """Coerce a Scalar of this field, a string token, or a value Scalar accepts."""
        if isinstance(value, Scalar):
            if value.field is not self:
                raise FieldMismatchError(f"scalar from {value.field} used in {self}")
            return value
        if isinstance(value, str):
            token = value.strip()
            try:
                value = int(token) if self.kind == GF else _rational(token)
            except (ValueError, ZeroDivisionError):
                what = "residue" if self.kind == GF else "rational"
                raise ParseError(f"bad {what} {quoted(token)} for {self}") from None
        return Scalar(self, value)

    @property
    def zero(self) -> "Scalar":
        return self.scalar(0)

    @property
    def one(self) -> "Scalar":
        return self.scalar(1)

    def elements(self) -> tuple["Scalar", ...]:
        """All field elements in residue order, finite fields only; kept."""
        if self.kind != GF:
            raise InvalidInputError(f"{self} is infinite")
        try:
            return self._elements
        except AttributeError:
            object.__setattr__(self, "_elements", tuple(map(self.scalar, range(self.prime))))
            return self._elements


class Scalar(_Immutable):
    """An element of a FieldSpec's field.

    ``value`` is a Fraction in lowest terms for the rational fields and an
    int residue in [0, q) for F_q.  The constructor normalises every value:
    an int or a Fraction (over F_q an integral one) is converted or reduced,
    any other type (float, bool, str, ...) is a ParseError.  Instances are
    immutable and hashable; e with |a| = p**e (None at zero) is computed on
    first use and kept (`_abs_exponent`).
    """

    __slots__ = ("field", "value", "_e")

    def __init__(self, field: FieldSpec, value):
        kind = type(value)
        try:
            q = field._q   # F_q's modulus, 0 over the rationals; only a FieldSpec has it
        except AttributeError:
            require_type("scalar field", field, FieldSpec)
        if kind is int:
            value = value % q if q else Fraction(value)
        elif kind is Fraction:
            if q:
                if value.denominator != 1:
                    raise ParseError(f"non-integer value {value} in {field}")
                value = value.numerator % q
        else:
            raise ParseError(f"{kind.__name__} {quoted(value)} is not an exact scalar of {field}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.field is other.field and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.field, self.value))

    def _check(self, other: "Scalar") -> None:
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if other.field is not self.field:
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

    def _abs_exponent(self) -> int | None:
        """`_exponent(value, 0, p)`: e with |self| = p**e, None at zero; kept."""
        try:
            return self._e
        except AttributeError:
            object.__setattr__(self, "_e", _exponent(self.value, 0, self.field._p))
            return self._e

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"Scalar({self.field}, {self.value})"


# ord_p up to this is cheaper one division at a time than through `_order`'s powers.
_SHORT_ORDER = 8


def _exponent(a, b, p: int) -> int | None:
    """e with |a - b| = p**e for raw values of one field (`Scalar.value`s),
    p being the field's `_p`; None when a = b.  With a = an/ad and b = bn/bd
    in lowest terms, e = ord_p(ad*bd) - ord_p(an*bd - bn*ad) over padic:p,
    from integers alone; e = 0 over gf:q and trivial:q (p = 1).  Each side
    strips p one division at a time up to `_SHORT_ORDER`, and the rest by
    `_order`'s repeated squaring.
    """
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    num = an * bd - bn * ad
    if not num:
        return None
    if p == 1:
        return 0
    den, e = ad * bd, 0
    while den % p == 0:
        den, e = den // p, e + 1
        if e == _SHORT_ORDER:
            e += _order(den, p)
            break
    k = 0
    while num % p == 0:
        num, k = num // p, k + 1
        if k == _SHORT_ORDER:
            k += _order(num, p)
            break
    return e - k


def _order(v: int, p: int) -> int:
    """ord_p(v) for a nonzero integer v: p, p**2, p**4, ... are divided out
    while each division is exact, then the same powers in reverse, so
    ord_p(v) = k takes O(log k) divisions, not k."""
    powers, k = [p], 0
    while v % powers[-1] == 0:
        v //= powers[-1]
        k += 1 << (len(powers) - 1)
        powers.append(powers[-1] * powers[-1])
    for i in range(len(powers) - 2, -1, -1):
        if v % powers[i] == 0:
            v //= powers[i]
            k += 1 << i
    return k


def valuation(a: Scalar) -> Magnitude:
    """|a| as an exact nonnegative rational: p**e with e = a's kept
    `_exponent(a, 0)` over padic:p, 1 for nonzero a over gf:q and trivial:q,
    and 0 at zero.
    """
    require_type("valuation operand", a, Scalar)
    e = a._abs_exponent()
    return Fraction(0) if e is None else Fraction(a.field._p) ** e


# -- axiom verification -------------------------------------------------------


class AxiomReport:
    """Outcome of an axiom sweep: violations are content, not exceptions."""

    __slots__ = ("subject", "checks", "violations")

    def __init__(self, subject: str):
        self.subject, self.checks, self.violations = subject, 0, []

    @property
    def ok(self) -> bool:
        return not self.violations

    def record(self, passed: bool, axiom: str, operands: tuple, detail: str = "") -> None:
        self.checks += 1
        if not passed:
            self.violations.append(
                {"axiom": axiom, "operands": [str(o) for o in operands], "detail": detail})

    def to_json_dict(self) -> dict:
        return {
            "subject": self.subject,
            "checks": self.checks,
            "ok": self.ok,
            "violations": list(self.violations),
        }


def _check_samples(what: str, samples, size: int) -> None:
    """Refuse `samples` unless it is a list or tuple of lists or tuples of `size` items."""
    require_type(f"{what} samples", samples, list, tuple)
    for sample in samples:
        require_type(f"{what} sample", sample, list, tuple)
        if len(sample) != size:
            raise InvalidInputError(f"{what} sample must have {size} items, got {len(sample)}")


def check_valuation_axioms(spec: FieldSpec, samples) -> AxiomReport:
    """Verify the valuation axioms on every sample pair.

    ``samples`` is a list or tuple of (a, b) Scalar pairs from ``spec``.  Checked
    per pair: |ab| = |a||b|, the ultrametric bound |a+b| <= max(|a|, |b|),
    the isosceles refinement (equality whenever |a| != |b|), and per element
    that |a| = 0 exactly at a = 0.  All comparisons are exact.  A sample
    from another field than `spec` is refused as a field mismatch.
    """
    require_type("field", spec, FieldSpec)
    _check_samples("valuation", samples, 2)
    report, zero = AxiomReport(subject=str(spec)), spec.zero
    for a, b in samples:
        zero._check(a)   # a + b checks b against a
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
