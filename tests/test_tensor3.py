import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactbounds.errors import InvalidParameters, NotSymmetric, SingularMatrix
from contactbounds.tensor3 import (
    _cpow,
    as_mat3,
    cofactor,
    ddot,
    det,
    inverse,
    sym_eigenvalues,
)

entries = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
mat3 = st.lists(entries, min_size=9, max_size=9).map(
    lambda v: np.array(v).reshape(3, 3)
)


def test_det_hand_value():
    m = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    assert det(m) == pytest.approx(18.0, abs=1e-14)


def test_det_identity_and_diag():
    assert det(np.eye(3)) == 1.0
    assert det(np.diag([2.0, 3.0, 4.0])) == pytest.approx(24.0, abs=1e-14)


@given(mat3)
@settings(max_examples=100, deadline=None)
def test_det_matches_numpy(m):
    assert det(m) == pytest.approx(np.linalg.det(m), abs=1e-9)


@given(mat3, mat3)
@settings(max_examples=100, deadline=None)
def test_det_is_multiplicative(a, b):
    scale = max(1.0, abs(det(a)) * abs(det(b)))
    assert abs(det(a @ b) - det(a) * det(b)) <= 1e-9 * scale


@given(mat3)
@settings(max_examples=100, deadline=None)
def test_cofactor_adjugate_identity(m):
    # m @ cof(m).T = det(m) I, entrywise polynomial identity
    lhs = m @ cofactor(m).T
    scale = max(1.0, float(np.max(np.abs(m))) ** 3)
    assert np.max(np.abs(lhs - det(m) * np.eye(3))) <= 1e-12 * scale


def test_cofactor_of_diag():
    c = cofactor(np.diag([2.0, 3.0, 5.0]))
    assert np.allclose(c, np.diag([15.0, 10.0, 6.0]), atol=1e-14)


@given(mat3, mat3)
@settings(max_examples=100, deadline=None)
def test_ddot_matches_componentwise_sum(a, b):
    assert ddot(a, b) == pytest.approx(float(np.sum(a * b)), abs=1e-9)


def test_stacks_equal_single_matrix_calls():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((40, 3, 3))
    B = rng.standard_normal((40, 3, 3))
    assert np.array_equal(det(A), [det(a) for a in A])
    assert np.array_equal(ddot(A, B), [ddot(a, b) for a, b in zip(A, B)])
    # one 9-term order for a single matrix and a stack: np.sum's
    assert all(ddot(a, b) == float(np.sum(a * b)) for a, b in zip(A, B))
    assert type(ddot(A[0], B[0])) is float


def test_inverse_reconstructs_identity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = rng.standard_normal((3, 3))
        if abs(det(m)) < 1e-3:
            continue
        r = np.max(np.abs(inverse(m) @ m - np.eye(3)))
        assert r < 1e-12


def test_inverse_singular_raises():
    m = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]])
    with pytest.raises(SingularMatrix):
        inverse(m)


def test_as_mat3_rejects_bad_input():
    with pytest.raises(InvalidParameters):
        as_mat3(np.zeros((2, 2)))
    with pytest.raises(InvalidParameters):
        as_mat3(np.full((3, 3), np.nan))


def test_eigenvalues_of_diag_are_sorted():
    w = sym_eigenvalues(np.diag([1.0, 3.0, 2.0]))
    assert w == pytest.approx((3.0, 2.0, 1.0), abs=1e-14)


def test_eigenvalues_degenerate_spectra():
    w = sym_eigenvalues(2.0 * np.eye(3))
    assert w == pytest.approx((2.0, 2.0, 2.0), abs=1e-14)
    w = sym_eigenvalues(np.diag([5.0, 5.0, 1.0]))
    assert w == pytest.approx((5.0, 5.0, 1.0), abs=1e-12)


def test_eigenvalues_scaled_matrix():
    s = 1e8 * np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
    w = sym_eigenvalues(s)
    ref = np.linalg.eigvalsh(s)[::-1]
    assert np.allclose(w, ref, rtol=1e-10)


def test_eigenvalues_match_numpy_on_random_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = rng.standard_normal((3, 3))
        s = m + m.T
        w = np.array(sym_eigenvalues(s))
        ref = np.linalg.eigvalsh(s)[::-1]
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(w - ref)) < 1e-9 * scale
        # reconstruction invariants
        assert abs(sum(w) - np.trace(s)) < 1e-10 * scale
        assert abs(w[0] * w[1] * w[2] - det(s)) < 1e-8 * scale**3


def test_eigenvalues_reject_asymmetric():
    m = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(NotSymmetric):
        sym_eigenvalues(m)


@pytest.mark.parametrize("k", [2, 3])
def test_cpow_matches_scalar_power_value_by_value(k):
    rng = np.random.default_rng(k)
    # numpy's array power differs from C pow on some of these values
    v = np.concatenate([rng.uniform(0.01, 10.0, 60_000), np.exp(rng.uniform(-60, 60, 60_000))])
    v[::7] *= -1.0
    got = _cpow(v.reshape(-1, 40), k)
    assert got.shape == (3_000, 40) and got.dtype == np.float64
    assert got.ravel().tolist() == [float(x) ** k for x in v.tolist()]


def test_cpow_returns_a_python_float_for_a_scalar():
    for x in (1.3, np.float64(1.3), np.array(1.3)):
        assert type(_cpow(x, 3)) is float and _cpow(x, 3) == 1.3**3
