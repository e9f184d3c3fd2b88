"""Linear algebra of Minkowski 3-space R^3_1 with signature (-, +, +).

Vectors are plain numpy arrays of shape (..., 3); all operations broadcast
over leading axes.  The inner product is

    <a, b> = -a1*b1 + a2*b2 + a3*b3,

and the cross product is defined by the determinant identity
<cross(a, b), c> = det(a, b, c) for every c (rows a, b, c).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "vec",
    "inner",
    "cross",
    "det3",
    "boost",
    "spatial_rotation",
]

_METRIC_DIAG = np.array([-1.0, 1.0, 1.0])


def vec(a1, a2, a3):
    """Build a Minkowski vector (or stack of vectors) from components."""
    return np.stack(np.broadcast_arrays(
        np.asarray(a1, dtype=float),
        np.asarray(a2, dtype=float),
        np.asarray(a3, dtype=float)), axis=-1)


def inner(a, b):
    """Indefinite inner product <a,b> = -a1*b1 + a2*b2 + a3*b3."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 0] * -1.0 + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def cross(a, b):
    """Lorentzian cross product, pinned by <cross(a,b), c> = det(a, b, c).

    Componentwise this is the Euclidean cross product with the first
    component negated (the metric raises the index on the first axis).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    e = np.cross(a, b)
    e[..., 0] = -e[..., 0]
    return e


def det3(a, b, c):
    """Determinant of the 3x3 matrix with rows a, b, c (broadcasts)."""
    return inner(cross(a, b), c)


def boost(rapidity):
    """Proper Lorentz boost in the (x1, x2) plane, det = +1."""
    c, s = np.cosh(rapidity), np.sinh(rapidity)
    return np.array([[c, s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def spatial_rotation(angle):
    """Proper rotation in the spacelike (x2, x3) plane, det = +1."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
