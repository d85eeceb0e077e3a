"""Exception hierarchy shared by the whole package.

Every domain failure raises an UltranormError subclass so callers (and the
CLI) can distinguish bad inputs from bugs.  Each subclass names its JSON
error `type` in `kind`, and `to_json_dict` gives the payload the CLI prints.
"""

from __future__ import annotations

# Past this many bits no enumeration can run whatever the cap, so its size is
# never formed (nor printed past Python's int -> str digit limit).
_MAX_SIZE_BITS = 4096

DEFAULT_ENUM_CAP = 2 ** 16     # segment points, sample grids, check-axioms samples
DEFAULT_SPACE_CAP = 9          # points; (q^n)! bijections would dwarf anything larger
# Under sup every bijection of F_q^n is an isometry, so the search visits all
# (q^n)! of them: 7! = 5040, the most a one-norm search reaches at its cap.
DEFAULT_ULTRAMETRIC_SPACE_CAP = 7
DEFAULT_TRIPLE_CAP = 10 ** 7   # betweenness triples
# pairwise work: verify's probe pairs, the oracle's distance table; 1024 points at most
VERIFY_CAP = 2 ** 20

# Reports keep this many witnesses of each kind and count the rest.
WITNESS_LIMIT = 10

# An error message quotes at most this many characters of a rejected value.
_QUOTE_CHARS = 200


def quoted(value) -> str:
    """repr(value) for an error message, bounded however large the value is.

    A repr longer than _QUOTE_CHARS characters is cut there and followed by
    its full length.
    """
    text = repr(value)
    if len(text) <= _QUOTE_CHARS:
        return text
    return f"{text[:_QUOTE_CHARS]}... ({len(text)} characters)"


def require_type(what: str, value, *kinds: type) -> None:
    """Refuse a value whose type is not exactly one of `kinds`: a list kept
    where an immutable value expects a tuple would leave it unhashable and
    growable, and a value of another class would fail later as a bug."""
    if type(value) not in kinds:
        names = " or ".join(kind.__name__ for kind in kinds)
        article = "an" if names[0] in "AEIOUaeiou" else "a"
        raise InvalidInputError(f"{what} must be {article} {names}, got {type(value).__name__}")


class UltranormError(Exception):
    """Base class for all domain errors raised by this package."""

    kind = "error"

    def to_json_dict(self) -> dict:
        return {"type": self.kind, "message": str(self)}


class InvalidInputError(UltranormError, ValueError):
    """An argument is out of its domain (e.g. a non-prime modulus, n < 1).

    The only error here that is also a ValueError, so library callers that
    catch ValueError keep working.
    """

    kind = "invalid-input"


class OutsideDomainError(InvalidInputError, KeyError):
    """A value lies outside a partial scalar table (`TableMap.apply`, `AxialIsometry.apply`).

    Also a KeyError, so callers that catch a failed lookup keep working; str()
    gives the plain message, not KeyError's quoted repr.
    """

    __str__ = Exception.__str__


class ParseError(UltranormError):
    """A textual form (field tag, scalar, vector, probe file) is malformed.

    The message always names the offending token.
    """

    kind = "parse"


class FieldMismatchError(UltranormError):
    """Two values from different fields were combined."""

    kind = "field-mismatch"


class DimensionMismatchError(UltranormError):
    """Vectors (or a vector and a norm) of incompatible dimension were mixed."""

    kind = "dimension-mismatch"


class EnumerationTooLargeError(UltranormError):
    """An enumeration would exceed its cap.

    `size` is the number of elements the enumeration would produce, or None
    when `check` found it too large to compute; `cap` is the limit in force.
    """

    kind = "enumeration-too-large"

    def __init__(self, size: int | None, cap: int, detail: str = "", power: str = ""):
        self.size = size
        self.cap = cap
        msg = f"enumeration of {power or size} elements exceeds cap {cap}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)

    @classmethod
    def check(cls, base: int, exponent: int, cap: int, detail: str) -> None:
        """Raise unless an enumeration of base**exponent elements fits cap.

        The power is formed only below 2**4096 (exponent times the bit length
        of base at most 4096); past that the error carries size None.  A
        negative exponent passes: the caller's own argument checks reject it.
        A base, exponent or cap that is not an int is invalid input.
        """
        if type(base) is not int or type(exponent) is not int or type(cap) is not int:
            for what, value in (("size base", base), ("size exponent", exponent), ("cap", cap)):
                require_type(what, value, int)
        if exponent < 0:
            return
        if exponent * abs(base).bit_length() > _MAX_SIZE_BITS:
            raise cls(None, cap, detail, power=f"{base}^{exponent}")
        size = base ** exponent
        if size > cap:
            raise cls(size, cap, detail)

    def to_json_dict(self) -> dict:
        return {**super().to_json_dict(), "size": self.size, "cap": self.cap}


class DecompositionError(UltranormError):
    """A probe table is not the restriction of any axial taxicab isometry.

    `witness` is the first probe point whose image is inconsistent with the
    axial form, as a (point, image) pair.
    """

    kind = "decomposition-failure"

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)

    def to_json_dict(self) -> dict:
        payload = super().to_json_dict()
        if self.witness is not None:
            point, image = self.witness
            payload["witness"] = {"point": str(point), "image": str(image)}
        return payload


class UnderdeterminedError(UltranormError):
    """A probe table lacks the axis probes needed to pin down a decomposition.

    `axis` is the 0-based index of the bare axis.
    """

    kind = "under-determined"

    def __init__(self, message: str, axis: int):
        self.axis = axis
        super().__init__(message)

    def to_json_dict(self) -> dict:
        return {**super().to_json_dict(), "axis": self.axis}


class HypothesisError(UltranormError):
    """A construction's hypothesis is violated (e.g. the sphere-shift map
    needs an ultrametric field with ||e0|| < ||v0||)."""

    kind = "hypothesis"
