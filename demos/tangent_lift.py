"""From a Hessian potential to a Kahler structure on the tangent bundle.

Starting from the conical potential of the positive orthant, this script
builds the lifted metric and 2-form on M x R^2, confirms closedness and the
complex-Hessian potential identity, and then follows the conformal rescaling:
for the homothetic field xi = -rho the rescaled form g(xi, xi)^{-1} omega is
invariant under the lifted flow while the raw form flows with weight 2.

Run with:  python demos/tangent_lift.py
"""

import numpy as np

from hessgeo import (
    build_kahler_lift,
    check_conformal_invariance,
    check_kahler,
    check_potential_identity,
    preset,
)
from hessgeo.cli import NONCONE_POINT, noncone_structure
from hessgeo.tensors import exterior_derivative_2form


def main():
    cone = preset("orthant2")
    ss = cone.selfsimilar
    lift = build_kahler_lift(ss.base)

    print("lifted structure on M x R^2, base potential",
          ss.base.potential.serialize())
    p = np.array([1.0, 1.0, 0.5, -0.5])
    print("g_r at", p)
    print(np.array_str(lift.metric(p), precision=4))
    print("omega at", p)
    print(np.array_str(lift.omega(p), precision=4))

    for entry in (check_kahler(lift, 40), check_potential_identity(lift, 40)):
        mark = "ok" if entry.passed else "FAIL"
        print(f"[{mark}] {entry.claim}  (residual {entry.residual:.2e})")

    print()
    print("conformal rescaling along xi = -rho:")
    for entry in check_conformal_invariance(ss, 40):
        mark = "ok" if entry.passed else "FAIL"
        print(f"[{mark}] {entry.claim}  (residual {entry.residual:.2e})")

    print()
    print("counterexample: a metric that is not a coordinate Hessian")
    bad = build_kahler_lift(noncone_structure(samples=20))
    dw = exterior_derivative_2form(bad.omega, NONCONE_POINT)
    print(f"max |d omega| at x1 = 0.5: {np.max(np.abs(dw)):.6f} (nonzero, "
          "so the lift is not Kahler)")


if __name__ == "__main__":
    main()
