"""Integral geometry of horizontal lines in the 3D Heisenberg group.

The package models the rigid-motion group of the Heisenberg group H1 and
its invariant measures on horizontal lines and segments, computes exact
chords of convex bodies, evaluates Lebesgue volume and the
sub-Riemannian perimeter (p-Area), and estimates the kinematic
identities tying them together by Monte Carlo and randomised
quasi-Monte Carlo (the grid method) integration, each with an error bar.
"""

from .core import (
    TWO_PI,
    PshMotion,
    line_chart_image,
    motion_affine,
    psh_compose,
    psh_inverse,
)
from .bodies import (
    Ball,
    Box,
    CapabilityError,
    ConvexBody,
    Ellipsoid,
    Polytope,
    transform_body,
)
from .measures import (
    MeasureResult,
    QuadratureError,
    horizontal_normal_norm,
    p_area,
    volume,
    volume_voxel_oracle,
)
from .estimators import (
    DEFAULT_SEED,
    ContainmentError,
    EstimateResult,
    InvarianceReport,
    InvarianceRow,
    containment_probability,
    estimate_chord_integral,
    estimate_line_measure,
    estimate_mean_chord,
    estimate_segment_containment_measure,
    estimate_segment_hit_measure,
    invariance_check,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "TWO_PI",
    "PshMotion",
    "psh_compose",
    "psh_inverse",
    "motion_affine",
    "line_chart_image",
    "CapabilityError",
    "ConvexBody",
    "Ball",
    "Ellipsoid",
    "Box",
    "Polytope",
    "transform_body",
    "MeasureResult",
    "QuadratureError",
    "horizontal_normal_norm",
    "volume",
    "p_area",
    "volume_voxel_oracle",
    "DEFAULT_SEED",
    "ContainmentError",
    "EstimateResult",
    "InvarianceRow",
    "InvarianceReport",
    "estimate_line_measure",
    "estimate_chord_integral",
    "estimate_segment_hit_measure",
    "estimate_segment_containment_measure",
    "estimate_mean_chord",
    "containment_probability",
    "invariance_check",
]
