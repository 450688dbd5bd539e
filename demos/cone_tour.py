"""A tour of the homogeneous cone presets.

Builds each built-in cone, prints the two invariant metrics at a reference
point, and verifies the scaling laws: the canonical metric is invariant under
the full automorphism group, the conical metric only under the unimodular
subgroup, and the radiant field rescales it with weight -n.

Run with:  python demos/cone_tour.py
"""

import numpy as np

from hessgeo import dilation_law, preset, radiant_law
from hessgeo.cones import PRESET_NAMES, automorphism_samples
from hessgeo.tensors import pullback_metric


def main():
    for name in PRESET_NAMES:
        cone = preset(name)
        print(f"== {name} (dim {cone.dim}) ==")
        print(f"   characteristic potential: {cone.phi_char.serialize()}")
        p = cone.can.domain.box.mean(axis=1)
        can, con = cone.can, cone.con
        print(f"   g_can at {p}:")
        print(np.array_str(can.metric(p), precision=4))
        for entry in (radiant_law(cone), dilation_law(cone, 2.0)):
            mark = "ok" if entry.passed else "FAIL"
            print(f"   [{mark}] {entry.claim}  (residual {entry.residual:.2e})")

        # the conical metric detects scaling: a dilation is an automorphism of
        # the cone but changes g_con by the factor q^(-n)
        T = automorphism_samples(cone, 1, unimodular=False)[0]
        defect = np.max(np.abs(pullback_metric(T, con.metric, p) - con.metric(p)))
        print(f"   sampled full-group map moves g_con by {defect:.2e} "
              "(zero only if unimodular)")
        print()


if __name__ == "__main__":
    main()
