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
    "inner_planes",
    "cross_planes",
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
    return inner_planes(_planes(a), _planes(b))


def cross(a, b):
    """Lorentzian cross product, pinned by <cross(a,b), c> = det(a, b, c).

    Componentwise this is the Euclidean cross product with the first
    component negated (the metric raises the index on the first axis).
    """
    return np.moveaxis(cross_planes(_planes(a), _planes(b)), 0, -1)


def _planes(a):
    """The component planes of vectors a (..., 3): a view with the component axis first."""
    return np.moveaxis(np.asarray(a, dtype=float), -1, 0)


def inner_planes(A, B):
    """inner on component planes: A = (a1, a2, a3) with the component axis first."""
    return A[0] * B[0] * -1.0 + A[1] * B[1] + A[2] * B[2]


def cross_planes(A, B):
    """cross on component planes, as a new (3, ...) array of planes.

    The three differences are np.cross's, in its order of operations, and
    the first is negated.
    """
    out = np.empty((3,) + np.broadcast_shapes(A[0].shape, B[0].shape))
    tmp = np.empty(out.shape[1:])
    for c, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        plane = out[c, ...]
        np.multiply(A[i], B[j], out=plane)
        plane -= np.multiply(A[j], B[i], out=tmp)
    np.negative(out[0, ...], out=out[0, ...])
    return out


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
