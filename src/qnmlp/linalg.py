"""Small dense linear-algebra checks used by the optimizers.

Everything is 64-bit float: vectors are 1-D numpy arrays, matrices are
2-D row-major numpy arrays. ``dot`` is a shape-checked inner product;
``is_symmetric`` and ``is_spd`` test the inverse-Hessian invariants.
Other products and norms are plain numpy (``@``, ``np.outer``,
``np.linalg.norm``).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["dot", "is_symmetric", "is_spd"]

# Asymmetry allowed for a matrix that claims to be symmetric, relative
# to max(1, |a_ij|).
SYMMETRY_RTOL = 1e-12


def dot(a, b) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"dot needs two equal-length vectors, got shapes {a.shape} and {b.shape}")
    return float(np.dot(a, b))


def is_symmetric(m, rtol: float = SYMMETRY_RTOL) -> bool:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    scale = np.maximum(1.0, np.abs(m))
    return bool(np.all(np.abs(m - m.T) <= rtol * scale))


def is_spd(m, tol: float) -> bool:
    """True iff Cholesky-style elimination succeeds with every pivot > tol.

    The input must be square (and is read as symmetric: only the lower
    triangle is touched). A NaN pivot fails the comparison and returns
    False rather than raising.
    """
    a = np.array(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"is_spd needs a square matrix, got shape {a.shape}")
    n = a.shape[0]
    for k in range(n):
        pivot = a[k, k]
        if not pivot > tol:
            return False
        root = math.sqrt(pivot)
        a[k + 1 :, k] /= root
        a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k + 1 :, k])
    return True
