"""Exact geometry of the taxicab norm over ultrametric valued fields.

The package provides valued fields (p-adic and trivial valuations on the
rationals, prime fields), coordinate norms built from those valuations,
metric betweenness and segment enumeration for the taxicab norm, axial
isometries with a decomposition routine for probe-sampled maps, and
brute-force oracles over small finite spaces.
"""

from __future__ import annotations

from .betweenness import (
    SegmentEnumeration,
    coordinate_between,
    differing_positions,
    is_metrically_between,
    minimize_two_point,
    segment,
    uniqueness_check,
)
from .errors import (
    DecompositionError,
    DimensionMismatchError,
    EnumerationTooLargeError,
    FieldMismatchError,
    HypothesisError,
    InvalidInputError,
    ParseError,
    UltranormError,
    UnderdeterminedError,
)
from .fields import (
    AxiomReport,
    FieldSpec,
    Magnitude,
    Scalar,
    check_valuation_axioms,
    valuation,
)
from .isometry import (
    AffineMap,
    AxialIsometry,
    IsometryReport,
    ProbeMap,
    TableMap,
    decompose,
    scalar_isometry_from_json,
    sphere_shift_map,
    verify_isometry,
)
from .oracle import (
    BetweennessReport,
    EnumerationResult,
    axial_isometry_count,
    enumerate_isometries,
    exhaustive_betweenness_check,
    group_closure_check,
)
from .spaces import (
    NormSpec,
    Vector,
    check_norm_axioms,
    distance,
    enumerate_space,
    norm,
    valuation_profile,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "AxialIsometry",
    "AxiomReport",
    "BetweennessReport",
    "DecompositionError",
    "DimensionMismatchError",
    "EnumerationResult",
    "EnumerationTooLargeError",
    "FieldMismatchError",
    "FieldSpec",
    "HypothesisError",
    "InvalidInputError",
    "IsometryReport",
    "Magnitude",
    "NormSpec",
    "ParseError",
    "ProbeMap",
    "Scalar",
    "SegmentEnumeration",
    "TableMap",
    "UltranormError",
    "UnderdeterminedError",
    "Vector",
    "axial_isometry_count",
    "check_norm_axioms",
    "check_valuation_axioms",
    "coordinate_between",
    "decompose",
    "differing_positions",
    "distance",
    "enumerate_isometries",
    "enumerate_space",
    "exhaustive_betweenness_check",
    "group_closure_check",
    "is_metrically_between",
    "minimize_two_point",
    "norm",
    "scalar_isometry_from_json",
    "segment",
    "sphere_shift_map",
    "uniqueness_check",
    "valuation",
    "valuation_profile",
    "verify_isometry",
]
