"""hessgeo: numerical laboratory for Hessian, Kahler and hyper-Kahler
structures built from potentials on flat charts.

Three constructions are provided, each with a verification suite:

* the tangent-bundle Kahler lift of a Hessian metric,
* its conformal rescaling for selfsimilar Hessian structures (with the
  homogeneous convex cone presets as the main source of examples),
* the cotangent-bundle hyper-Kahler lift of a special Kahler structure
  generated by a holomorphic prepotential, and its conformal rescaling.
"""

import os
import sys

# The largest matrix here is 8x8, so a BLAS thread pool never pays, and the
# pool OpenBLAS starts when numpy loads costs about 40% of the import.  Ask
# for one thread unless the user chose a count or numpy is already loaded.
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

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
from .report import __version__
from .structures import SelfsimilarHessianStructure
from .cones import dilation_law, preset, radiant_law
from .rmap import (
    build_kahler_lift,
    check_conformal_invariance,
    check_kahler,
    check_potential_identity,
)
from .cmap import (
    build_hyperkahler,
    check_conformal_hyperkahler,
    check_hyperkahler,
    check_special_kahler_axioms,
    special_kahler_preset,
)
