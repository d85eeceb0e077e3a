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
import operator

from .errors import (
    WITNESS_LIMIT,
    DecompositionError,
    DimensionMismatchError,
    FieldMismatchError,
    HypothesisError,
    InvalidInputError,
    OutsideDomainError,
    ParseError,
    UnderdeterminedError,
    quoted,
    require_type,
)
from .fields import GF, PADIC, FieldSpec, Scalar, _Immutable, valuation
from .spaces import NormSpec, Vector, _key_rows, distance, norm


class AffineMap(_Immutable):
    """a -> u*a + c with |u| = 1, so |f(a) - f(b)| = |a - b| identically."""

    __slots__ = ("u", "c")

    def __init__(self, u: Scalar, c: Scalar):
        require_type("affine slope", u, Scalar)
        require_type("affine offset", c, Scalar)
        u._check(c)
        if valuation(u) != 1:
            raise InvalidInputError(f"affine slope must be a unit, |{u}| = {valuation(u)}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "c", c)

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


class TableMap(_Immutable):
    """A scalar isometry given pointwise.

    Over a finite field the table must be a bijection of the whole field;
    over the rationals it is a partial table (the honest output of a
    decomposition whose axis data fits no affine map).  Entries are checked
    for injectivity and exact metric preservation at construction.  The
    lookup maps each input's raw value to its stored image `Scalar`; two
    tables are equal when their lookups are, whatever the order of entries.
    """

    __slots__ = ("entries", "_lookup")

    def __init__(self, entries: tuple[tuple[Scalar, Scalar], ...]):
        if not entries:
            raise InvalidInputError("empty table")
        require_type("table entries", entries, tuple)
        for entry in entries:
            if type(entry) is not tuple or len(entry) != 2:   # the fast test
                require_type("table entry", entry, tuple)
                raise InvalidInputError(f"table entry must be a pair, got {len(entry)} items")
        first = entries[0][0]
        require_type("table value", first, Scalar)
        fld = first.field
        for a, b in entries:
            if (type(a) is not Scalar or type(b) is not Scalar
                    or a.field is not fld or b.field is not fld):   # the fast test
                for c in (a, b):
                    require_type("table value", c, Scalar)
                    first._check(c)
        lookup = {a.value: b for a, b in entries}
        if len(lookup) != len(entries):
            raise InvalidInputError("duplicate table inputs")
        if len({b.value for _, b in entries}) != len(entries):   # the fast test
            earlier: dict = {}   # image value -> the first input mapped to it
            for a, fa in entries:
                b = earlier.setdefault(fa.value, a)
                if b is not a:
                    raise InvalidInputError(f"table not injective: {b} and {a} both map to {fa}")
        if fld.kind == PADIC:   # over gf:q and trivial:q, injective is metric-preserving
            columns = [[a for a, _ in entries]], [[b for _, b in entries]]
            for k, (keys, image_keys) in enumerate(_key_rows(columns, fld._p, NormSpec.one())):
                if keys != image_keys:   # no Scalar per pair, only for the message
                    j = k + 1 + list(map(operator.ne, keys, image_keys)).index(True)
                    (a, fa), (b, fb) = entries[k], entries[j]
                    raise InvalidInputError(
                        f"table not metric-preserving: |{a}-{b}|={valuation(a - b)} "
                        f"but |{fa}-{fb}|={valuation(fa - fb)}")
        if fld.kind == GF and len(entries) != fld.prime:
            raise InvalidInputError(
                f"finite-field table must be a bijection of all {fld.prime} residues")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_lookup", lookup)

    def __eq__(self, other):
        if type(other) is not TableMap:
            return NotImplemented
        return self._lookup == other._lookup   # the image Scalars carry the field

    def __hash__(self) -> int:
        return hash(frozenset(self._lookup.items()))

    @classmethod
    def from_residues(cls, field: FieldSpec, images) -> "TableMap":
        """Finite-field form: images[r] is the image of residue r."""
        require_type("field", field, FieldSpec)
        require_type("residue images", images, list, tuple)
        if field.kind != GF:
            raise InvalidInputError("residue tables are for finite fields")
        return cls(tuple(
            (Scalar(field, r), field.scalar(img)) for r, img in enumerate(images)))

    @classmethod
    def from_pairs(cls, field: FieldSpec, pairs) -> "TableMap":
        require_type("field", field, FieldSpec)
        require_type("table pairs", pairs, list, tuple)
        for pair in pairs:
            require_type("table entry", pair, list, tuple)
            if len(pair) != 2:
                raise InvalidInputError(f"table entry must be a pair, got {len(pair)} items")
        return cls(tuple((field.scalar(a), field.scalar(b)) for a, b in pairs))

    @property
    def field(self) -> FieldSpec:
        return self.entries[0][0].field

    def apply(self, a: Scalar) -> Scalar:
        self.entries[0][0]._check(a)   # a TypeError or field-mismatch, as for u * a
        image = self._lookup.get(a.value)
        if image is None:
            raise OutsideDomainError(f"value {a} not in isometry table")
        return image

    @property
    def is_centred(self) -> bool:
        return self._lookup.get(0) == self.field.zero

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


def _compose_scalar(outer: ScalarIsometry, inner: ScalarIsometry,
                    shift: Scalar) -> ScalarIsometry:
    """The scalar isometry a -> outer(inner(a) + shift), in closed form."""
    if isinstance(outer, AffineMap) and isinstance(inner, AffineMap):
        u = outer.u * inner.u
        c = outer.u * (inner.c + shift) + outer.c
        return AffineMap(u, c)
    if isinstance(inner, TableMap):
        return TableMap(tuple(
            (a, outer.apply(b + shift)) for a, b in inner.entries))
    # outer is a partial rational table, inner affine: pull outer's domain back
    inner_inv = inner.inverse()
    return TableMap(tuple(
        (inner_inv.apply(x - shift), y) for x, y in outer.entries))


class AxialIsometry(_Immutable):
    """translation + (tau_1(x_{sigma[1]}), ..., tau_n(x_{sigma[n]})).

    sigma[i] is the 0-based input coordinate feeding output coordinate i.
    `apply` evaluates through a plan built on first use and kept: per output
    coordinate, the source axis and either a table from raw input values to
    image Scalars or an affine map's raw slope and offset, with the
    translation folded into both.
    """

    __slots__ = ("sigma", "taus", "translation", "_plan")

    def __init__(self, sigma: tuple[int, ...], taus: tuple[ScalarIsometry, ...],
                 translation: Vector):
        require_type("axial isometry sigma", sigma, tuple)
        require_type("axial isometry taus", taus, tuple)
        require_type("axial isometry translation", translation, Vector)
        n = translation.dim
        if len(sigma) != n or len(taus) != n:
            raise DimensionMismatchError(
                f"sigma/taus/translation lengths {len(sigma)}/{len(taus)}/{n}")
        if set(map(type, sigma)) != {int}:   # a bool would pass as 0 or 1
            raise InvalidInputError(
                f"axial isometry sigma entries must be ints, got {quoted(sigma)}")
        if sorted(sigma) != list(range(n)):
            raise InvalidInputError(f"sigma {sigma} is not a permutation of 0..{n - 1}")
        for tau in taus:
            if type(tau) not in (AffineMap, TableMap) or tau.field is not translation.field:
                require_type("axial isometry tau", tau, TableMap, AffineMap)
                raise FieldMismatchError("tau field differs from translation field")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "translation", translation)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "AxialIsometry":
        require_type("field", field, FieldSpec)
        translation = Vector.zero(field, n)   # refuses an n that is not an int
        ident = AffineMap(field.one, field.zero)
        return cls(tuple(range(n)), (ident,) * n, translation)

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
        """Output coordinate i is tau_i(x[sigma[i]]) + t_i, read off the kept plan from
        x's raw values: a table coordinate is looked up, an affine one is one Scalar."""
        self.translation._check(x)
        try:
            plan = self._plan
        except AttributeError:
            plan = tuple(
                (src, {a: b + t for a, b in tau._lookup.items()}, None, None)
                if type(tau) is TableMap else (src, None, tau.u.value, tau.c.value + t.value)
                for tau, src, t in zip(self.taus, self.sigma, self.translation.coords))
            object.__setattr__(self, "_plan", plan)
        field, raw, coords = self.field, x._raw_values(), []
        for src, table, u, c in plan:
            a = raw[src]
            if table is None:
                coords.append(Scalar(field, u * a + c))
            else:
                image = table.get(a)
                if image is None:
                    raise OutsideDomainError(f"value {a} not in isometry table")
                coords.append(image)
        return Vector(field, tuple(coords))

    def compose(self, other: "AxialIsometry") -> "AxialIsometry":
        """self after other: apply(compose, x) = self.apply(other.apply(x))."""
        require_type("axial isometry", other, AxialIsometry)
        self.translation._check(other.translation)
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


def _check_points(what: str, domain: tuple, points) -> None:
    """Refuse `points` unless they are a tuple of one Vector per point of the
    domain, each of the field and dimension of domain[0], itself a Vector."""
    require_type(what, points, tuple)
    if len(points) != len(domain):
        raise InvalidInputError(f"{len(domain)} domain points vs {len(points)} images")
    first = domain[0]
    require_type("probe map point", first, Vector)
    fld, n = first.field, len(first.coords)
    for v in points:
        if type(v) is not Vector or v.field is not fld or len(v.coords) != n:   # the fast test
            require_type("probe map point", v, Vector)
            first._check(v)


class ProbeMap(_Immutable):
    """A black-box map sampled on finitely many points: images[k] is the image of domain[k].

    `complete` asserts the domain is the whole (finite) space; it is what
    licenses surjectivity checks.  `_positions`, the positions of the origin
    and of each axis's probes that `decompose` reads, is kept per domain:
    `_with_images` builds a map on the same domain tuple, checks only its
    images and hands the positions on.
    """

    __slots__ = ("domain", "images", "complete", "_axes")

    def __init__(self, domain: tuple[Vector, ...], images: tuple[Vector, ...],
                 complete: bool = False):
        if not domain:
            raise InvalidInputError("empty probe map")
        _check_points("probe map domain", domain, domain)   # the domain passes its images' test
        _check_points("probe map images", domain, images)
        require_type("probe map complete", complete, bool)
        if len(set(domain)) != len(domain):
            raise InvalidInputError("duplicate probe points")
        fld, n = domain[0].field, domain[0].dim
        if complete:
            if fld.kind != GF:
                raise InvalidInputError("complete probe maps exist only over finite fields")
            if len(domain) != fld.prime ** n:
                raise InvalidInputError(
                    f"complete flag on {len(domain)} of {fld.prime ** n} points")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "complete", complete)

    def _with_images(self, images: tuple[Vector, ...]) -> "ProbeMap":
        """This domain and `complete` flag with other images, checked as `__init__`
        checks them; the domain's checks are not repeated and its positions are kept."""
        _check_points("probe map images", self.domain, images)
        sibling = object.__new__(ProbeMap)
        for name, value in (("domain", self.domain), ("images", images),
                            ("complete", self.complete), ("_axes", self._positions())):
            object.__setattr__(sibling, name, value)
        return sibling

    def _positions(self) -> tuple:
        """(origin, axes), kept: the origin's position in the domain (None when it
        is missing) and, per axis i, the positions of the domain's nonzero points
        on axis i, in domain order."""
        if not hasattr(self, "_axes"):
            n, origin, axes = self.dim, None, [[] for _ in range(self.dim)]
            for k, x in enumerate(self.domain):
                zeros = x._raw_values().count(0)
                if zeros == n:
                    origin = k
                elif zeros == n - 1:
                    axes[next(i for i, c in enumerate(x._raw_values()) if c)].append(k)
            object.__setattr__(self, "_axes", (origin, tuple(map(tuple, axes))))
        return self._axes

    @classmethod
    def from_isometry(cls, iso: AxialIsometry, points, complete: bool = False) -> "ProbeMap":
        require_type("axial isometry", iso, AxialIsometry)
        require_type("probe points", points, list, tuple)
        pts = tuple(points)
        return cls(pts, tuple(map(iso.apply, pts)), complete)

    @property
    def field(self) -> FieldSpec:
        return self.domain[0].field

    @property
    def dim(self) -> int:
        return self.domain[0].dim

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
            raise ParseError(f"probe map n must be an integer, got {quoted(n)}")
        if not isinstance(pairs, (list, tuple)):
            raise ParseError(f"probe map pairs must be a list, got {quoted(pairs)}")
        if not isinstance(complete, bool):
            raise ParseError(f"probe map complete must be true or false, got {quoted(complete)}")
        domain, images = [], []
        for pair in pairs:
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and all(isinstance(v, (list, tuple)) for v in pair)):
                raise ParseError(f"bad probe pair {quoted(pair)}")
            x, y = pair
            domain.append(Vector.make(field, x))
            images.append(Vector.make(field, y))
            if domain[-1].dim != n or images[-1].dim != n:
                raise ParseError(f"probe pair {quoted(pair)} is not {n}-dimensional")
        return cls(tuple(domain), tuple(images), complete)


class IsometryReport:
    """Pairwise verification of a probe map against a norm."""

    __slots__ = ("norm", "probes", "pairs_checked", "distance_violations", "collisions",
                 "surjective", "violation_count", "collision_count")

    def __init__(self, norm: str, probes: int):
        require_type("probe count", probes, int)
        self.norm, self.probes, self.pairs_checked = norm, probes, probes * (probes - 1) // 2
        self.distance_violations: list = []   # the first WITNESS_LIMIT
        self.collisions: list = []            # the first WITNESS_LIMIT
        self.surjective: bool | None = None
        self.violation_count = self.collision_count = 0

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
            "violations": list(self.distance_violations),
            "collisions": list(self.collisions),
            "violation_count": self.violation_count,
            "collision_count": self.collision_count,
        }


def verify_isometry(m: ProbeMap, spec: NormSpec) -> IsometryReport:
    """Check distance preservation and injectivity over all probe pairs.

    One probe at a time, the domain's row of integer keys to every later
    probe (`spaces._key_rows`) is compared with the images' row as a list;
    an entry that differs is a violation, and a 0 in the images' row, equal
    images, is a collision.  Pairs come in `itertools.combinations` order.
    `distance` builds the Fractions of the kept witnesses only.  Violations
    are report content, never exceptions: all are counted, the first
    WITNESS_LIMIT of each kind are kept.  When the probe map is complete,
    surjectivity onto the finite space is checked as well.  The points need
    no operand check here: `ProbeMap` refused any of another class, field or
    dimension when it was built.
    """
    require_type("probe map", m, ProbeMap)
    require_type("norm", spec, NormSpec)
    probes = len(m.domain)
    report = IsometryReport(norm=str(spec), probes=probes)
    sides = [list(zip(*(v.coords for v in points))) for points in (m.domain, m.images)]
    for k, (domain, image) in enumerate(_key_rows(sides, m.field._p, spec)):
        x, fx = m.domain[k], m.images[k]
        if domain != image:
            broken = list(map(operator.ne, domain, image))
            report.violation_count += broken.count(True)
            room = WITNESS_LIMIT - len(report.distance_violations)
            for j in itertools.islice(itertools.compress(range(k + 1, probes), broken), room):
                y, fy = m.domain[j], m.images[j]
                report.distance_violations.append(
                    {"x": str(x), "y": str(y), "domain_distance": str(distance(x, y, spec)),
                     "image_distance": str(distance(fx, fy, spec))})
        collided = image.count(0)
        if collided:
            report.collision_count += collided
            room = WITNESS_LIMIT - len(report.collisions)
            for j in itertools.islice(itertools.compress(
                    range(k + 1, probes), map(operator.not_, image)), room):
                report.collisions.append({"x": str(x), "y": str(m.domain[j]), "image": str(fx)})
    if m.complete:
        # q^n distinct probes whose images lie in F_q^n: onto iff one-to-one
        report.surjective = report.injective
    return report


def _fit_tau(field: FieldSpec, entries: list[tuple], axis: int) -> ScalarIsometry:
    """Build the scalar isometry matching centred axis data exactly.

    ``entries`` are raw (value, image) pairs (`Scalar.value`s) with nonzero
    values, in probe order; the implied (0, 0) entry is appended.  Finite
    fields demand the full field on the axis and produce a table of the
    field's q element Scalars, each image reduced mod q.  A centred tau
    fixes 0, so over the rationals the only affine candidate is
    a -> (b0/a0)*a from the first entry; it is validated on every entry,
    with a partial table as the fallback when it does not match.
    """
    full = entries + [(0, 0)]
    if field.kind == GF:
        if len(full) != field.prime:
            present = {a for a, _ in full}
            # the lazy scan stops at the WITNESS_LIMIT-th gap, so q may be near 2^32
            named = list(itertools.islice(
                (r for r in range(field.prime) if r not in present), WITNESS_LIMIT))
            more = field.prime - len(present) - len(named)
            tail = f" and {more} more" if more else ""
            raise UnderdeterminedError(
                f"axis {axis} lacks probes at {sorted(str(s) for s in named)}{tail}", axis)
        elems = field.elements()
        return TableMap(tuple((elems[a], elems[b % field.prime]) for a, b in full))
    u = entries[0][1] / entries[0][0]
    if all(u * a == b for a, b in entries):
        try:
            return AffineMap(Scalar(field, u), field.zero)
        except InvalidInputError:   # u is not a unit
            pass
    return TableMap(tuple((Scalar(field, a), Scalar(field, b)) for a, b in full))


def decompose(m: ProbeMap) -> AxialIsometry:
    """Recover the axial form of a taxicab isometry from its probe table.

    The origin's image t and the axis probes are read by position from
    `m._positions()`, found in one pass over the domain and kept for it, so
    maps on one domain tuple share that pass.  Each axis probe's image
    differs from t on one axis, which gives the axis-to-axis assignment;
    each scalar isometry is fitted from its axis data; every probe is
    replayed through the candidate.  A probe inconsistent with any axial
    form raises DecompositionError carrying that probe; axes without usable
    probes raise UnderdeterminedError.  All three steps compare raw values
    (`Vector._raw_values`); Scalars are built only for the returned taus and
    for a failure's witness and message.
    """
    require_type("probe map", m, ProbeMap)
    field, n = m.field, m.dim
    q = field.prime if field.kind == GF else None
    origin, axes = m._positions()
    if origin is None:
        raise InvalidInputError("probe domain must contain the origin")
    t = m.images[origin]
    t_raw = t._raw_values()
    axis_pairs = [[(m.domain[k], m.images[k]) for k in ks] for ks in axes]

    # sigma[j] is the input axis that lands on output axis j
    sigma: list[int | None] = [None] * n
    tau_data: list[list[tuple]] = [[] for _ in range(n)]
    for i, pairs in enumerate(axis_pairs):
        if not pairs:
            raise UnderdeterminedError(f"axis {i} has no nonzero probes", i)
        target = None
        for probe, image in pairs:
            moved = [j for j, (b, tj) in enumerate(zip(image._raw_values(), t_raw)) if b != tj]
            if len(moved) != 1:
                raise DecompositionError(
                    f"image of axis probe {probe} is not on a single axis", witness=(probe, image))
            if target is None:
                target = moved[0]
            elif moved[0] != target:
                raise DecompositionError(
                    f"axis {i} probes land on axes {target} and {moved[0]}", witness=(probe, image))
            tau_data[target].append(
                (probe._raw_values()[i], image._raw_values()[target] - t_raw[target]))
        if sigma[target] is not None:
            raise DecompositionError(f"two axes map onto axis {target}", witness=pairs[0])
        sigma[target] = i

    taus = []
    for i, entries in zip(sigma, tau_data):
        try:
            taus.append(_fit_tau(field, entries, axis=i))
        except InvalidInputError as exc:
            raise DecompositionError(f"axis {i} data fits no scalar isometry: {exc}",
                                     witness=axis_pairs[i][0]) from None

    candidate = AxialIsometry(tuple(sigma), tuple(taus), t)
    # output coordinate j of a probe is tau_j(x[sigma[j]]) + t_j: the whole table of a
    # table tau; per distinct input value for an affine tau (rationals only; centred, c = 0)
    replay = [({} if type(tau) is AffineMap else
               {a.value: (b.value + tj) % q if q else b.value + tj for a, b in tau.entries},
               i, tau, tj) for i, tau, tj in zip(sigma, taus, t_raw)]
    for x, img in zip(m.domain, m.images):
        x_raw = x._raw_values()
        got = []
        for table, i, tau, tj in replay:
            a = x_raw[i]
            b = table.get(a)
            if b is None:
                if type(tau) is TableMap:
                    raise UnderdeterminedError(
                        f"cannot replay probe {x}: value {a} not in isometry table", i)
                b = table[a] = tau.u.value * a + tj
            got.append(b)
        if tuple(got) != img._raw_values():
            raise DecompositionError(f"probe {x} maps to {img}, axial reconstruction gives "
                                     f"{Vector.make(field, got)}", witness=(x, img))
    return candidate


def sphere_shift_map(e0: Vector, v0: Vector, probes,
                     spec: NormSpec = NormSpec.sup()) -> ProbeMap:
    """The ultrametric isometry that shifts one sphere and fixes the rest.

    T(x) = x + e0 when ||x|| = ||v0||, T(x) = x otherwise.  Under any
    ultrametric norm with ||e0|| < ||v0|| this preserves all distances, yet
    it respects no axis structure, so feeding its probe table to `decompose`
    fails.  Requires a p-adic field: a trivial valuation admits no nonzero
    e0 below another sup-norm value.  A probe from another field or
    dimension is refused before any norm is taken.
    """
    require_type("norm", spec, NormSpec)
    Vector._check(e0, v0)
    require_type("probe points", probes, list, tuple)
    pts = tuple(probes)
    for x in pts:
        e0._check(x)
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
    images = tuple(x + e0 if norm(x, spec) == target else x for x in pts)
    return ProbeMap(pts, images, complete=False)
