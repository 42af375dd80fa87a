"""trailkit: exact enumeration of extremal-vector trails in fundamental
modules of finite-type Kac-Moody algebras, canonical S-graph construction by
binary fusion, and step-by-step no-false-trail verification."""

from __future__ import annotations

from .cartan_core import CartanData, WordJ, is_reduced, validate_gcm
from .rep_builder import (
    LowestWeightModule,
    build_fundamental,
    extremal_vector,
    freudenthal_multiplicities,
    weyl_dimension,
)
from .sl2_engine import (
    Sl2Config,
    coefficient_A,
    coefficient_A_oracle,
    vanishing_identity,
)
from .sgraph import (
    CoeffVector,
    SGraph,
    SVertex,
    binary_fusion,
    display_tuple,
    extremal_functions,
    integer_points,
    line_count,
    neighbor_graph,
    polytope_membership,
    to_dot,
)
from .giant import (
    ClassBlock,
    Envelope,
    EnvelopeLayer,
    check_constructibility,
    construct_envelope,
    epsilon_star,
    extremality_report,
)
from .trails import (
    LinearFunctionBJ,
    Trail,
    TsClass,
    driving_trail,
    enumerate_trails,
    face_function,
    group_ts_classes,
    kashiwara_function,
    trail_function,
)

__all__ = [
    "CartanData",
    "WordJ",
    "is_reduced",
    "validate_gcm",
    "LowestWeightModule",
    "build_fundamental",
    "extremal_vector",
    "freudenthal_multiplicities",
    "weyl_dimension",
    "Sl2Config",
    "coefficient_A",
    "coefficient_A_oracle",
    "vanishing_identity",
    "CoeffVector",
    "SGraph",
    "SVertex",
    "binary_fusion",
    "display_tuple",
    "extremal_functions",
    "integer_points",
    "line_count",
    "neighbor_graph",
    "polytope_membership",
    "to_dot",
    "ClassBlock",
    "Envelope",
    "EnvelopeLayer",
    "check_constructibility",
    "construct_envelope",
    "epsilon_star",
    "extremality_report",
    "LinearFunctionBJ",
    "Trail",
    "TsClass",
    "driving_trail",
    "enumerate_trails",
    "face_function",
    "group_ts_classes",
    "kashiwara_function",
    "trail_function",
]

__version__ = "0.1.0"
