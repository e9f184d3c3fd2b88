import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lorsurf.minkowski as mk

component = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False,
                      allow_infinity=False, width=64)
vector = st.tuples(component, component, component).map(np.array)


def euclid_det_cross(a, b):
    """Independent oracle: the unique w with <w, e_i> = det(a, b, e_i)."""
    dets = [np.linalg.det(np.array([a, b, e]))
            for e in np.eye(3)]
    return np.array([-dets[0], dets[1], dets[2]])


def test_inner_signature():
    assert mk.inner(mk.vec(1, 0, 0), mk.vec(1, 0, 0)) == -1.0
    assert mk.inner(mk.vec(0, 1, 0), mk.vec(0, 1, 0)) == 1.0
    assert mk.inner(mk.vec(0, 0, 1), mk.vec(0, 0, 1)) == 1.0


def test_inner_expansion():
    # -(1 * -1) + 1 * 1 + 0 * 0
    assert mk.inner(mk.vec(1, 1, 0), mk.vec(-1, 1, 0)) == 2.0


def test_inner_broadcasts():
    a = np.array([[1.0, 1.0, 0.0], [0.0, 3.0, 4.0]])
    assert np.allclose(mk.inner(a, a), [0.0, 25.0])


def test_cross_basis_examples():
    e1, e2, e3 = np.eye(3)
    np.testing.assert_allclose(mk.cross(e1, e2), euclid_det_cross(e1, e2))
    np.testing.assert_allclose(mk.cross(e1, e2), [0.0, 0.0, 1.0])
    np.testing.assert_allclose(mk.cross(e2, e3), euclid_det_cross(e2, e3))
    np.testing.assert_allclose(mk.cross(e2, e3), [-1.0, 0.0, 0.0])


def test_cross_antisymmetric_on_equal_args(rng):
    a = rng.normal(size=3)
    np.testing.assert_array_equal(mk.cross(a, a), np.zeros(3))


@given(vector, vector)
@settings(max_examples=200, deadline=None)
def test_inner_symmetric(a, b):
    assert mk.inner(a, b) == mk.inner(b, a)


@given(vector, vector)
@settings(max_examples=200, deadline=None)
def test_cross_orthogonality(a, b):
    w = mk.cross(a, b)
    scale = 1.0 + np.abs(a).max() * np.abs(b).max()
    assert abs(mk.inner(w, a)) <= 1e-12 * scale**2
    assert abs(mk.inner(w, b)) <= 1e-12 * scale**2


@given(vector, vector, vector)
@settings(max_examples=200, deadline=None)
def test_cross_determinant_identity(a, b, c):
    lhs = mk.inner(mk.cross(a, b), c)
    with np.errstate(divide="ignore"):  # det's LU path warns on singular input
        rhs = np.linalg.det(np.array([a, b, c]))
    scale = 1.0 + np.abs(a).max() * np.abs(b).max() * np.abs(c).max()
    assert abs(lhs - rhs) <= 1e-10 * scale


@given(vector, vector)
@settings(max_examples=200, deadline=None)
def test_lagrange_identity(a, b):
    w = mk.cross(a, b)
    lhs = mk.inner(w, w)
    rhs = mk.inner(a, b) ** 2 - mk.inner(a, a) * mk.inner(b, b)
    scale = 1.0 + (np.abs(a).max() * np.abs(b).max()) ** 2
    assert abs(lhs - rhs) <= 1e-10 * scale


@pytest.mark.parametrize("A", [mk.boost(0.8), mk.spatial_rotation(1.1),
                               mk.boost(-0.3) @ mk.spatial_rotation(2.0)])
def test_motions_preserve_inner_and_orientation(A, rng):
    a, b = rng.normal(size=3), rng.normal(size=3)
    assert np.isclose(mk.inner(A @ a, A @ b), mk.inner(a, b))
    assert np.isclose(np.linalg.det(A), 1.0)
