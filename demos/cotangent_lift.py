"""From a holomorphic prepotential to a hyper-Kahler frame on T*M.

Builds the two-variable conic prepotential, recovers the complex coordinates
from the flat Darboux chart by Newton inversion, assembles the frame
(g_c, I1, I2, I3) on the cotangent bundle, and verifies the quaternion
algebra, closedness of the three Kahler forms, and the conformal flow along
the Euler field.

Run with:  python demos/cotangent_lift.py
"""

import numpy as np

from hessgeo import (
    SelfsimilarHessianStructure,
    build_hyperkahler,
    check_conformal_hyperkahler,
    check_hyperkahler,
    check_special_kahler_axioms,
    special_kahler_preset,
)
from hessgeo.cmap import _newton_invert
from hessgeo.tensors import VectorFieldSpec


def main():
    sk = special_kahler_preset("sk_conic", samples=20)
    print(f"prepotential: {sk.prepotential.F.serialize()}  (m = {sk.m})")

    z = sk.prepotential.center_z()
    q = np.concatenate([z.real, sk.prepotential.jets(z).gradient.real])
    back = _newton_invert(sk.prepotential, q)
    print(f"Darboux chart round trip |z - z(q(z))| = {np.max(np.abs(back - z)):.2e}")

    print("metric at the center point:")
    print(np.array_str(sk.metric(q), precision=4))
    print(f"omega = lambda * Omega with lambda = {sk.omega_constant()[sk.m, 0]:.4f}")

    frame = build_hyperkahler(sk, q)
    print("quaternion check I1 I2 - I3:",
          f"{np.max(np.abs(frame.I1 @ frame.I2 - frame.I3)):.2e}")

    print()
    for entry in check_special_kahler_axioms(sk, 20):
        mark = "ok" if entry.passed else "FAIL"
        print(f"[{mark}] {entry.claim}  (residual {entry.residual:.2e})")
    for entry in check_hyperkahler(sk, 15):
        mark = "ok" if entry.passed else "FAIL"
        print(f"[{mark}] {entry.claim}  (residual {entry.residual:.2e})")

    print()
    print("conformal rescaling along the Euler field:")
    euler = SelfsimilarHessianStructure(sk, VectorFieldSpec.from_affine(np.eye(sk.dim)))
    for entry in check_conformal_hyperkahler(euler, 10):
        mark = "ok" if entry.passed else "FAIL"
        print(f"[{mark}] {entry.claim}  (residual {entry.residual:.2e})")


if __name__ == "__main__":
    main()
