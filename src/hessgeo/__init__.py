"""hessgeo: numerical laboratory for Hessian, Kahler and hyper-Kahler
structures built from potentials on flat charts.

Three constructions are provided, each with a verification suite:

* the tangent-bundle Kahler lift of a Hessian metric,
* its conformal rescaling for selfsimilar Hessian structures (with the
  homogeneous convex cone presets as the main source of examples),
* the cotangent-bundle hyper-Kahler lift of a special Kahler structure
  generated by a holomorphic prepotential, and its conformal rescaling.
"""

from .errors import (
    ArityError,
    ConfigError,
    DomainError,
    EmptyDomainSample,
    ExprSyntaxError,
    ExpressionError,
    HessgeoError,
    NewtonDivergence,
    NonpositiveNorm,
    NotAnIsometry,
    NotPositiveDefinite,
    Overflow,
    SingularMetric,
    TranslationUnsupported,
    UnknownIdentifier,
    UnknownPreset,
)
from .expressions import ScalarExpression, parse_expression
from .jets import Jet
from .report import CheckResult, VerificationReport, __version__
from .tensors import (
    AffineAutomorphism,
    TensorField,
    VectorFieldSpec,
    exterior_derivative_2form,
    lie_derivative_endomorphism,
    lie_derivative_metric,
    nijenhuis,
    pullback_defect,
    pullback_metric,
)
from .structures import (
    Domain,
    HessianStructure,
    SelfsimilarHessianStructure,
    check_selfsimilar,
    make_hessian_structure,
    norm_squared,
)
from .cones import PRESET_NAMES, ConePreset, dilation_law, preset, radiant_law
from .rmap import (
    KahlerLift,
    build_kahler_lift,
    check_conformal_invariance,
    check_invariance_psi,
    check_kahler,
    check_lemma_xi_items,
    check_potential_identity,
)
from .cmap import (
    SK_PRESET_NAMES,
    HyperKahlerFrame,
    Prepotential,
    SpecialKahlerStructure,
    build_hyperkahler,
    check_conformal_hyperkahler,
    check_hyperkahler,
    check_invariance_psi_hat,
    check_special_kahler_axioms,
    special_kahler_from_prepotential,
    special_kahler_preset,
)
