"""Exact cross-ratio calculus for collinear points over skew fields.

The package bundles three exact skew-field implementations (rationals,
prime fields, rational quaternions), the ratio and cross-ratio calculus on
a coordinatized line including the point at infinity, ruler constructions
realizing field arithmetic inside the affine plane, a Desargues
configuration checker and generator, and a seeded exact verification
engine with machine-readable reports.  The verification engine is imported
from crossratio.verify (CHECKS, run_check, run_suite and their errors), so
importing the package does not load it.
"""

from .fields import (
    DivisionByZeroError,
    Element,
    Field,
    FieldMismatchError,
    GaloisField,
    QuaternionField,
    RationalField,
    commutes,
    conjugate_by,
    field_by_name,
)
from .plane import (
    AuxiliaryPointError,
    Chart,
    Construction,
    DegenerateConfigurationError,
    DesarguesConfig,
    GenerationFailureError,
    HypothesisViolationError,
    IdenticalLinesError,
    IdenticalPointsError,
    NotOnLineError,
    PlaneLine,
    PlanePoint,
    check_desargues,
    collinear,
    construct_product,
    construct_sum,
    construct_sum_and_product,
    default_aux,
    desargues_conclusion,
    generate_desargues_config,
    intersect,
    line_through,
    parallel,
    parallel_through,
    point,
    random_point,
    validate_desargues_config,
)
from .ratio import (
    CrossRatioArgumentError,
    ExtendedPoint,
    InfiniteSolutionError,
    InvalidRatioPointError,
    cross_ratio,
    cross_ratio_alt,
    ratio2,
    ratio3,
    solve_fourth_point,
)

__version__ = "0.1.0"
