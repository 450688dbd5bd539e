"""Exact affine flows, the test oracle for Lie derivatives."""

import numpy as np
from scipy.linalg import expm

from hessgeo.tensors import AffineAutomorphism


def affine_flow(A, b, t):
    """Time-t flow of the affine field x -> A x + b, via the augmented exponential."""
    n = A.shape[0]
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = t * np.asarray(A, dtype=float)
    M[:n, n] = t * np.asarray(b, dtype=float)
    E = expm(M)
    return AffineAutomorphism(E[:n, :n], E[:n, n])
