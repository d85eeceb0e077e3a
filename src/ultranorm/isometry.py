"""Axial isometries of (K^n, ||.||_1) and their recovery from probe tables.

An axial isometry is a translation composed with a coordinate permutation and
per-coordinate scalar isometries: output coordinate i is tau_i applied to
input coordinate sigma[i], plus a translation.  Every such map preserves
taxicab distance; conversely every bijection preserving taxicab distance is
of this form, and `decompose` recovers the form constructively from a finite
probe table by reading the images of the coordinate axes.

The sup norm admits isometries of no such shape: `sphere_shift_map` builds
the classic counterexample that shifts a single sup-norm sphere and leaves
everything else fixed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .errors import (
    DecompositionError,
    DimensionMismatchError,
    FieldMismatchError,
    HypothesisError,
    InvalidInputError,
    ParseError,
    UnderdeterminedError,
)
from .fields import GF, PADIC, FieldSpec, Magnitude, Scalar, valuation
from .spaces import NormSpec, Vector, distance, enumerate_space, norm


@dataclass(frozen=True)
class AffineMap:
    """a -> u*a + c with |u| = 1, so |f(a) - f(b)| = |a - b| identically."""

    u: Scalar
    c: Scalar

    def __post_init__(self):
        if self.u.field != self.c.field:
            raise FieldMismatchError("affine map coefficients from different fields")
        if valuation(self.u) != 1:
            raise InvalidInputError(
                f"affine slope must be a unit, |{self.u}| = {valuation(self.u)}")

    @property
    def field(self) -> FieldSpec:
        return self.u.field

    def apply(self, a: Scalar) -> Scalar:
        return self.u * a + self.c

    @property
    def is_centred(self) -> bool:
        return self.c.is_zero

    def inverse(self) -> "AffineMap":
        uinv = self.u.inverse()
        return AffineMap(uinv, -(uinv * self.c))

    def to_json_dict(self) -> dict:
        return {"affine": [str(self.u), str(self.c)]}

    def __str__(self) -> str:
        return f"a -> {self.u}*a + {self.c}"


@dataclass(frozen=True)
class TableMap:
    """A scalar isometry given pointwise.

    Over a finite field the table must be a bijection of the whole field;
    over the rationals it is a partial table (the honest output of a
    decomposition whose axis data fits no affine map).  Entries are checked
    for injectivity and exact metric preservation at construction.
    """

    entries: tuple[tuple[Scalar, Scalar], ...]

    def __post_init__(self):
        if not self.entries:
            raise InvalidInputError("empty table")
        fld = self.entries[0][0].field
        for a, b in self.entries:
            if a.field != fld or b.field != fld:
                raise FieldMismatchError("table entries from different fields")
        inputs = [a for a, _ in self.entries]
        if len(set(inputs)) != len(inputs):
            raise InvalidInputError("duplicate table inputs")
        for (a, fa), (b, fb) in itertools.combinations(self.entries, 2):
            if fa == fb:
                raise InvalidInputError(f"table not injective: {a} and {b} both map to {fa}")
            if valuation(a - b) != valuation(fa - fb):
                raise InvalidInputError(
                    f"table not metric-preserving: |{a}-{b}|={valuation(a - b)} "
                    f"but |{fa}-{fb}|={valuation(fa - fb)}")
        if fld.kind == GF and len(self.entries) != fld.prime:
            raise InvalidInputError(
                f"finite-field table must be a bijection of all {fld.prime} residues")

    @classmethod
    def from_residues(cls, field: FieldSpec, images) -> "TableMap":
        """Finite-field form: images[r] is the image of residue r."""
        if field.kind != GF:
            raise InvalidInputError("residue tables are for finite fields")
        return cls(tuple(
            (Scalar(field, r), field.scalar(img)) for r, img in enumerate(images)))

    @classmethod
    def from_pairs(cls, field: FieldSpec, pairs) -> "TableMap":
        return cls(tuple((field.scalar(a), field.scalar(b)) for a, b in pairs))

    @property
    def field(self) -> FieldSpec:
        return self.entries[0][0].field

    @cached_property
    def _lookup(self) -> dict:
        return {a: b for a, b in self.entries}

    def apply(self, a: Scalar) -> Scalar:
        try:
            return self._lookup[a]
        except KeyError:
            raise KeyError(f"value {a} not in isometry table") from None

    @property
    def is_centred(self) -> bool:
        zero = self.field.zero
        return self._lookup.get(zero) == zero

    def inverse(self) -> "TableMap":
        return TableMap(tuple((b, a) for a, b in self.entries))

    def to_json_dict(self) -> dict:
        if self.field.kind == GF:
            images = [0] * self.field.prime
            for a, b in self.entries:
                images[a.value] = b.value
            return {"table": images}
        return {"table": [[str(a), str(b)] for a, b in self.entries]}

    def __str__(self) -> str:
        return "{" + ", ".join(f"{a}->{b}" for a, b in self.entries) + "}"


ScalarIsometry = AffineMap | TableMap


def scalar_isometry_from_json(field: FieldSpec, obj) -> ScalarIsometry:
    if not isinstance(obj, dict):
        raise ParseError(f"bad scalar isometry object {obj!r}")
    if "affine" in obj:
        coeffs = obj["affine"]
        if not (isinstance(coeffs, (list, tuple)) and len(coeffs) == 2):
            raise ParseError(f"affine map needs [u, c], got {coeffs!r}")
        return AffineMap(field.scalar(coeffs[0]), field.scalar(coeffs[1]))
    if "table" in obj:
        table = obj["table"]
        if not isinstance(table, (list, tuple)):
            raise ParseError(f"scalar isometry table must be a list, got {table!r}")
        if field.kind == GF:
            return TableMap.from_residues(field, table)
        for entry in table:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
                raise ParseError(f"table entry must be a pair [a, b], got {entry!r}")
        return TableMap.from_pairs(field, table)
    raise ParseError(f"scalar isometry needs 'affine' or 'table', got {sorted(obj)}")


def _compose_scalar(outer: ScalarIsometry, inner: ScalarIsometry,
                    shift: Scalar) -> ScalarIsometry:
    """The scalar isometry a -> outer(inner(a) + shift), in closed form."""
    fld = shift.field
    if isinstance(outer, AffineMap) and isinstance(inner, AffineMap):
        u = outer.u * inner.u
        c = outer.u * (inner.c + shift) + outer.c
        return AffineMap(u, c)
    if fld.kind == GF:
        return TableMap(tuple(
            (a, outer.apply(inner.apply(a) + shift)) for a in fld.elements()))
    if isinstance(inner, TableMap):
        return TableMap(tuple(
            (a, outer.apply(b + shift)) for a, b in inner.entries))
    # outer is a partial rational table, inner affine: pull outer's domain back
    inner_inv = inner.inverse()
    return TableMap(tuple(
        (inner_inv.apply(x - shift), y) for x, y in outer.entries))


@dataclass(frozen=True)
class AxialIsometry:
    """translation + (tau_1(x_{sigma[1]}), ..., tau_n(x_{sigma[n]})).

    sigma[i] is the 0-based input coordinate feeding output coordinate i.
    """

    sigma: tuple[int, ...]
    taus: tuple[ScalarIsometry, ...]
    translation: Vector

    def __post_init__(self):
        n = self.translation.dim
        if len(self.sigma) != n or len(self.taus) != n:
            raise DimensionMismatchError(
                f"sigma/taus/translation lengths {len(self.sigma)}/{len(self.taus)}/{n}")
        if sorted(self.sigma) != list(range(n)):
            raise InvalidInputError(f"sigma {self.sigma} is not a permutation of 0..{n - 1}")
        for tau in self.taus:
            if tau.field != self.translation.field:
                raise FieldMismatchError("tau field differs from translation field")

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "AxialIsometry":
        ident = AffineMap(field.one, field.zero)
        return cls(tuple(range(n)), (ident,) * n, Vector.zero(field, n))

    @property
    def field(self) -> FieldSpec:
        return self.translation.field

    @property
    def dim(self) -> int:
        return self.translation.dim

    @property
    def is_centred(self) -> bool:
        return (all(c.is_zero for c in self.translation.coords)
                and all(tau.is_centred for tau in self.taus))

    def apply(self, x: Vector) -> Vector:
        self.translation._check(x)
        coords = tuple(
            tau.apply(x.coords[src]) + t
            for tau, src, t in zip(self.taus, self.sigma, self.translation.coords))
        return Vector(self.field, coords)

    def compose(self, other: "AxialIsometry") -> "AxialIsometry":
        """self after other: apply(compose, x) = self.apply(other.apply(x))."""
        if other.field != self.field:
            raise FieldMismatchError("composing isometries over different fields")
        if other.dim != self.dim:
            raise DimensionMismatchError(f"dimension {self.dim} vs {other.dim}")
        sigma = tuple(other.sigma[s] for s in self.sigma)
        taus = tuple(
            _compose_scalar(tau, other.taus[s], other.translation.coords[s])
            for tau, s in zip(self.taus, self.sigma))
        return AxialIsometry(sigma, taus, self.translation)

    def inverse(self) -> "AxialIsometry":
        n = self.dim
        sigma_inv = [0] * n
        for i, s in enumerate(self.sigma):
            sigma_inv[s] = i
        ident = AffineMap(self.field.one, self.field.zero)
        taus = []
        for j in range(n):
            i = sigma_inv[j]
            # output j of the inverse is tau_i^{-1}(y_i - t_i)
            taus.append(_compose_scalar(
                self.taus[i].inverse(), ident, -self.translation.coords[i]))
        return AxialIsometry(tuple(sigma_inv), tuple(taus), Vector.zero(self.field, n))

    def to_json_dict(self) -> dict:
        return {
            "field": str(self.field),
            "sigma": list(self.sigma),
            "taus": [tau.to_json_dict() for tau in self.taus],
            "translation": [str(c) for c in self.translation.coords],
        }

    @classmethod
    def from_json(cls, obj) -> "AxialIsometry":
        try:
            field = FieldSpec.parse(obj["field"])
            sigma = tuple(int(s) for s in obj["sigma"])
            translation = Vector.make(field, obj["translation"])
            taus = tuple(scalar_isometry_from_json(field, t) for t in obj["taus"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad axial isometry object: {exc}") from None
        return cls(sigma, taus, translation)


@dataclass(frozen=True)
class ProbeMap:
    """A black-box map sampled on finitely many points.

    `complete` asserts the domain is the whole (finite) space; it is what
    licenses surjectivity checks.
    """

    domain: tuple[Vector, ...]
    images: tuple[Vector, ...]
    complete: bool = False

    def __post_init__(self):
        if not self.domain:
            raise InvalidInputError("empty probe map")
        if len(self.domain) != len(self.images):
            raise InvalidInputError(
                f"{len(self.domain)} domain points vs {len(self.images)} images")
        fld, n = self.domain[0].field, self.domain[0].dim
        for v in itertools.chain(self.domain, self.images):
            if v.field != fld:
                raise FieldMismatchError("probe map mixes fields")
            if v.dim != n:
                raise DimensionMismatchError("probe map mixes dimensions")
        if len(set(self.domain)) != len(self.domain):
            raise InvalidInputError("duplicate probe points")
        if self.complete:
            if fld.kind != GF:
                raise InvalidInputError("complete probe maps exist only over finite fields")
            if len(self.domain) != fld.prime ** n:
                raise InvalidInputError(
                    f"complete flag on {len(self.domain)} of {fld.prime ** n} points")

    @classmethod
    def from_callable(cls, fn, points, complete: bool = False) -> "ProbeMap":
        pts = tuple(points)
        return cls(pts, tuple(fn(x) for x in pts), complete)

    @classmethod
    def from_isometry(cls, iso: AxialIsometry, points, complete: bool = False) -> "ProbeMap":
        return cls.from_callable(iso.apply, points, complete)

    @property
    def field(self) -> FieldSpec:
        return self.domain[0].field

    @property
    def dim(self) -> int:
        return self.domain[0].dim

    @cached_property
    def _lookup(self) -> dict:
        return dict(zip(self.domain, self.images))

    def image_of(self, x: Vector) -> Vector:
        try:
            return self._lookup[x]
        except KeyError:
            raise KeyError(f"point {x} not in probe domain") from None

    def to_json_dict(self) -> dict:
        return {
            "field": str(self.field),
            "n": self.dim,
            "pairs": [
                [[str(c) for c in x.coords], [str(c) for c in y.coords]]
                for x, y in zip(self.domain, self.images)
            ],
            "complete": self.complete,
        }

    @classmethod
    def from_json(cls, obj) -> "ProbeMap":
        try:
            field = FieldSpec.parse(obj["field"])
            n, pairs = obj["n"], obj["pairs"]
            complete = obj.get("complete", False)
        except (KeyError, TypeError):
            raise ParseError("bad probe map object (need field, n, pairs)") from None
        if type(n) is not int:
            raise ParseError(f"probe map n must be an integer, got {n!r}")
        if not isinstance(pairs, (list, tuple)):
            raise ParseError(f"probe map pairs must be a list, got {pairs!r}")
        if not isinstance(complete, bool):
            raise ParseError(f"probe map complete must be true or false, got {complete!r}")
        domain, images = [], []
        for pair in pairs:
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and all(isinstance(v, (list, tuple)) for v in pair)):
                raise ParseError(f"bad probe pair {pair!r}")
            x, y = pair
            domain.append(Vector.make(field, x))
            images.append(Vector.make(field, y))
            if domain[-1].dim != n or images[-1].dim != n:
                raise ParseError(f"probe pair {pair!r} is not {n}-dimensional")
        return cls(tuple(domain), tuple(images), complete)


@dataclass
class IsometryReport:
    """Pairwise verification of a probe map against a norm."""

    norm: str
    probes: int
    pairs_checked: int = 0
    distance_violations: list = dc_field(default_factory=list)   # the first 10
    collisions: list = dc_field(default_factory=list)            # the first 10
    surjective: bool | None = None
    violation_count: int = 0
    collision_count: int = 0

    @property
    def injective(self) -> bool:
        return self.collision_count == 0

    @property
    def ok(self) -> bool:
        return (self.violation_count == 0 and self.injective
                and self.surjective is not False)

    def to_json_dict(self) -> dict:
        return {
            "norm": self.norm,
            "probes": self.probes,
            "pairs_checked": self.pairs_checked,
            "ok": self.ok,
            "injective": self.injective,
            "surjective": self.surjective,
            "violations": [
                {
                    "x": str(x), "y": str(y),
                    "domain_distance": str(d1), "image_distance": str(d2),
                }
                for x, y, d1, d2 in self.distance_violations
            ],
            "collisions": [
                {"x": str(x), "y": str(y), "image": str(img)}
                for x, y, img in self.collisions
            ],
            "violation_count": self.violation_count,
            "collision_count": self.collision_count,
        }


def verify_isometry(m: ProbeMap, spec: NormSpec) -> IsometryReport:
    """Check distance preservation and injectivity over all probe pairs.

    Violations are report content, never exceptions: all are counted, the
    first 10 of each kind are kept.  When the probe map is complete,
    surjectivity onto the finite space is checked as well.
    """
    report = IsometryReport(norm=str(spec), probes=len(m.domain))
    for (x, fx), (y, fy) in itertools.combinations(zip(m.domain, m.images), 2):
        d_dom = distance(x, y, spec)
        d_img = distance(fx, fy, spec)
        report.pairs_checked += 1
        if d_dom != d_img:
            report.violation_count += 1
            if len(report.distance_violations) < 10:
                report.distance_violations.append((x, y, d_dom, d_img))
        if fx == fy:
            report.collision_count += 1
            if len(report.collisions) < 10:
                report.collisions.append((x, y, fx))
    if m.complete:
        report.surjective = set(m.images) == set(enumerate_space(m.field, m.dim))
    return report


def _nonzero_positions(v: Vector) -> list[int]:
    return [i for i, c in enumerate(v.coords) if not c.is_zero]


def _fit_tau(field: FieldSpec, entries: list[tuple[Scalar, Scalar]],
             axis: int) -> ScalarIsometry:
    """Build the scalar isometry matching centred axis data exactly.

    ``entries`` are (value, image) pairs with nonzero values, in probe order;
    the implied (0, 0) entry is appended.  Finite fields demand the full
    field on the axis and produce a table; rational fields get an affine fit
    from the first two entries, validated against the rest, with a raw table
    as the fallback when no affine map matches.
    """
    zero = field.zero
    full = entries + [(zero, zero)]
    if field.kind == GF:
        if len(full) != field.prime:
            missing = set(field.elements()) - {a for a, _ in full}
            raise UnderdeterminedError(
                f"axis {axis} lacks probes at {sorted(str(s) for s in missing)}", axis)
        return TableMap(tuple(full))
    # rational field: affine u*a (+ 0) from the leading probes, per the
    # centred form; validate on everything including the origin
    (a0, b0) = entries[0]
    if len(entries) == 1:
        u, c = b0 * a0.inverse(), zero
    else:
        a1, b1 = entries[1]
        u = (b1 - b0) * (a1 - a0).inverse()
        c = b0 - u * a0
    try:
        affine = AffineMap(u, c)
        if all(affine.apply(a) == b for a, b in full):
            return affine
    except InvalidInputError:
        pass
    return TableMap(tuple(full))


def decompose(m: ProbeMap) -> AxialIsometry:
    """Recover the axial form of a taxicab isometry from its probe table.

    Subtracts the image of the origin, reads the axis-to-axis assignment off
    the images of axis probes, fits each scalar isometry from its axis data,
    then replays every probe through the candidate.  A probe inconsistent
    with any axial form raises DecompositionError carrying that probe; axes
    without usable probes raise UnderdeterminedError.
    """
    field, n = m.field, m.dim
    origin = Vector.zero(field, n)
    try:
        t = m.image_of(origin)
    except KeyError:
        raise InvalidInputError("probe domain must contain the origin") from None

    centred = {x: img - t for x, img in zip(m.domain, m.images)}

    axis_entries: dict[int, list[tuple[Scalar, Vector, Vector]]] = {i: [] for i in range(n)}
    for x in m.domain:
        nz = _nonzero_positions(x)
        if len(nz) == 1:
            axis_entries[nz[0]].append((x.coords[nz[0]], centred[x], x))

    target_of: dict[int, int] = {}
    tau_data: dict[int, list[tuple[Scalar, Scalar]]] = {}
    for i in range(n):
        if not axis_entries[i]:
            raise UnderdeterminedError(f"axis {i} has no nonzero probes", i)
        entries = []
        target = None
        for value, image, probe in axis_entries[i]:
            nz = _nonzero_positions(image)
            if len(nz) != 1:
                raise DecompositionError(
                    f"image of axis probe {probe} is not on a single axis",
                    witness=(probe, m.image_of(probe)))
            if target is None:
                target = nz[0]
            elif nz[0] != target:
                raise DecompositionError(
                    f"axis {i} probes land on axes {target} and {nz[0]}",
                    witness=(probe, m.image_of(probe)))
            entries.append((value, image.coords[nz[0]]))
        if target in target_of.values():
            probe = axis_entries[i][0][2]
            raise DecompositionError(
                f"two axes map onto axis {target}", witness=(probe, m.image_of(probe)))
        target_of[i] = target
        tau_data[target] = entries

    # target_of is injective on 0..n-1, hence a permutation; output j reads
    # the input axis that lands on j
    sigma = [0] * n
    for i, j in target_of.items():
        sigma[j] = i

    taus = []
    for j in range(n):
        try:
            taus.append(_fit_tau(field, tau_data[j], axis=sigma[j]))
        except InvalidInputError as exc:
            probe = axis_entries[sigma[j]][0][2]
            raise DecompositionError(
                f"axis {sigma[j]} data fits no scalar isometry: {exc}",
                witness=(probe, m.image_of(probe))) from None

    candidate = AxialIsometry(tuple(sigma), tuple(taus), t)
    for x, img in zip(m.domain, m.images):
        try:
            got = candidate.apply(x)
        except KeyError as exc:
            axis = next(
                (sigma[j] for j in range(n)
                 if isinstance(taus[j], TableMap)
                 and x.coords[sigma[j]] not in taus[j]._lookup),
                -1)
            raise UnderdeterminedError(
                f"cannot replay probe {x}: {exc.args[0]}", axis) from None
        if got != img:
            raise DecompositionError(
                f"probe {x} maps to {img}, axial reconstruction gives {got}",
                witness=(x, img))
    return candidate


def sphere_shift_map(e0: Vector, v0: Vector, probes,
                     spec: NormSpec = NormSpec.sup()) -> ProbeMap:
    """The ultrametric isometry that shifts one sphere and fixes the rest.

    T(x) = x + e0 when ||x|| = ||v0||, T(x) = x otherwise.  Under any
    ultrametric norm with ||e0|| < ||v0|| this preserves all distances, yet
    it respects no axis structure, so feeding its probe table to `decompose`
    fails.  Requires a p-adic field: a trivial valuation admits no nonzero
    e0 below another sup-norm value.
    """
    e0._check(v0)
    if not spec.ultrametric:
        raise HypothesisError(f"sphere shift needs an ultrametric norm, got {spec}")
    if e0.field.kind != PADIC:
        raise HypothesisError(
            f"sphere shift needs a p-adic field, got {e0.field} "
            "(all nonzero sup norms coincide under the trivial valuation)")
    if norm(e0, spec) >= norm(v0, spec):
        raise HypothesisError(
            f"need ||e0|| < ||v0||, got {norm(e0, spec)} >= {norm(v0, spec)}")
    target = norm(v0, spec)
    pts = tuple(probes)
    images = tuple(x + e0 if norm(x, spec) == target else x for x in pts)
    return ProbeMap(pts, images, complete=False)
