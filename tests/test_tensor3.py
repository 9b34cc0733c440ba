import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactbounds.errors import InvalidParameters
from contactbounds.tensor3 import _axial_rate, _cpow, _square, as_mat3, cofactor, ddot, det

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
@settings(max_examples=100, deadline=None, derandomize=True)
def test_det_matches_numpy(m):
    assert det(m) == pytest.approx(np.linalg.det(m), abs=1e-9)


@given(mat3, mat3)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_det_is_multiplicative(a, b):
    scale = max(1.0, abs(det(a)) * abs(det(b)))
    assert abs(det(a @ b) - det(a) * det(b)) <= 1e-9 * scale


@given(mat3)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_cofactor_adjugate_identity(m):
    # m @ cof(m).T = det(m) I, entrywise polynomial identity
    lhs = m @ cofactor(m).T
    scale = max(1.0, float(np.max(np.abs(m))) ** 3)
    assert np.max(np.abs(lhs - det(m) * np.eye(3))) <= 1e-12 * scale


def test_cofactor_is_the_derivative_of_det():
    # cof(F) : G = d det(F + h G) / dh at h = 0, which piola_stress and
    # hessian_quadratic_form rely on
    F = np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.2], [0.1, 0.0, 1.0]])
    G = np.array([[0.2, -0.1, 0.4], [0.3, 0.0, -0.2], [0.1, 0.5, 0.3]])
    h = 1e-7
    fd = (np.linalg.det(F + h * G) - np.linalg.det(F - h * G)) / (2.0 * h)
    assert float(np.sum(cofactor(F) * G)) == pytest.approx(fd, abs=1e-7)


def test_cofactor_of_diag():
    c = cofactor(np.diag([2.0, 3.0, 5.0]))
    assert np.allclose(c, np.diag([15.0, 10.0, 6.0]), atol=1e-14)


def test_cofactor_of_a_singular_matrix_is_its_adjugate():
    # cofactor is defined for singular input, so verify's adjugate identity
    # needs no determinant filter: cof(m)^T m = det(m) I = 0, exact on small
    # integers, for a matrix alone and inside a stack
    m = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]])
    assert det(m) == 0.0
    assert np.any(cofactor(m) != 0.0)
    assert np.array_equal(cofactor(m).T @ m, np.zeros((3, 3)))
    stack = cofactor(np.stack([np.eye(3), m, np.zeros((3, 3))]))
    assert np.array_equal(stack[1], cofactor(m))
    assert np.array_equal(stack[2], np.zeros((3, 3)))


@given(mat3, mat3)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_ddot_matches_componentwise_sum(a, b):
    assert ddot(a, b) == pytest.approx(float(np.sum(a * b)), abs=1e-9)


def test_stacks_equal_single_matrix_calls():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((40, 3, 3))
    B = rng.standard_normal((40, 3, 3))
    assert np.array_equal(det(A), [det(a) for a in A])
    assert np.array_equal(det(A.reshape(4, 10, 3, 3)).ravel(), det(A))
    assert np.array_equal(ddot(A, B), [ddot(a, b) for a, b in zip(A, B)])
    assert np.array_equal(cofactor(A.reshape(4, 10, 3, 3)).reshape(40, 3, 3),
                          [cofactor(a) for a in A])
    # one 9-term order for a single matrix and a stack: np.sum's
    assert all(ddot(a, b) == float(np.sum(a * b)) for a, b in zip(A, B))
    assert type(ddot(A[0], B[0])) is float


def test_as_mat3_rejects_bad_input():
    with pytest.raises(InvalidParameters):
        as_mat3(np.zeros((2, 2)))
    with pytest.raises(InvalidParameters):
        as_mat3(np.full((3, 3), np.nan))


@pytest.mark.parametrize("k", [2, 3])
def test_cpow_matches_scalar_power_value_by_value(k):
    rng = np.random.default_rng(k)
    # numpy's array power differs from C pow on some of these values
    v = np.concatenate([rng.uniform(0.01, 10.0, 60_000), np.exp(rng.uniform(-60, 60, 60_000))])
    v[::7] *= -1.0
    got = _cpow(v.reshape(-1, 40), k)
    assert got.shape == (3_000, 40) and got.dtype == np.float64
    assert got.ravel().tolist() == [float(x) ** k for x in v.tolist()]


def test_cpow_names_the_first_value_whose_power_overflows():
    # value by value in C order; a float and a one-value list say the same
    stack = np.array([[1.0, 2.0], [-1e200, 1e300]])
    with pytest.raises(OverflowError) as err:
        _cpow(stack, 2)
    assert str(err.value) == "radius r = -1e+200 overflows in r^2"
    for v in (1e103, [1e103], np.array([0.5, 1e103])):
        with pytest.raises(OverflowError) as err:
            _cpow(v, 3)
        assert str(err.value) == "radius r = 1e+103 overflows in r^3"
        assert err.value.__cause__ is None and err.value.__suppress_context__
    with pytest.raises(OverflowError) as err:
        _cpow([1.0, 1e200], 2, "stretch a = %r overflows in a^2")
    assert str(err.value) == "stretch a = 1e+200 overflows in a^2"
    # the largest finite square is a value, the next float up is named
    assert _cpow([SQUARE_EDGE], 2)[0] == 1.7976931348623155e308
    with pytest.raises(OverflowError) as err:
        _cpow([math.nextafter(SQUARE_EDGE, math.inf)], 2)
    assert str(err.value) == "radius r = 1.3407807929942597e+154 overflows in r^2"


def test_square_leaves_an_int_and_a_numpy_scalar_to_their_own_power():
    # only a Python float's power raises OverflowError: an int squares
    # exactly, a numpy scalar gives inf with numpy's warning, as v**2 does
    assert _square(3, "%r") == 9 and type(_square(3, "%r")) is int
    assert type(_square(np.float64(1.5), "%r")) is np.float64
    with np.errstate(over="ignore"):
        assert _square(np.float64(1e200), "%r") == math.inf


def test_cpow_returns_a_python_float_for_a_scalar():
    for x in (1.3, np.float64(1.3), np.array(1.3)):
        assert type(_cpow(x, 3)) is float and _cpow(x, 3) == 1.3**3


# ±0.0, subnormals, 1e±300, ±inf and NaN next to ordinary values
special = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e-300, -1e-300, 1e300, -1e300,
     math.inf, -math.inf, math.nan]
)
edge_entries = st.one_of(special, entries, st.floats(allow_nan=True, allow_infinity=True))
edge_mat3 = st.lists(edge_entries, min_size=9, max_size=9).map(
    lambda v: np.array(v).reshape(3, 3)
)


def assert_same_floats(got, want):
    """Equal bit for bit up to a NaN's payload: the NaN positions, then
    every other value with its sign bit (so -0.0 is not 0.0)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan], want[~nan])
    assert np.array_equal(np.signbit(got[~nan]), np.signbit(want[~nan]))


def outcome(f, *args):
    # ("raise", type, message), or ("value", result)
    try:
        with np.errstate(all="ignore"):
            return ("value", f(*args))
    except Exception as e:
        return ("raise", type(e), str(e))


def assert_same_outcome(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "raise":
        assert got == want
    else:
        assert_same_floats(got[1], want[1])


@given(edge_mat3)
@settings(max_examples=150, deadline=None, derandomize=True)
@example(np.array([[1e300, -0.0, 5e-324], [math.nan, 1e-300, -1e300], [math.inf, 0.0, 2.0]]))
def test_single_matrix_equals_its_one_matrix_stack(m):
    # one matrix takes the Python-float path, a stack numpy's: the same
    # IEEE operations, so the same floats
    stack = m[None]
    got = outcome(det, m)
    assert type(got[1]) is float
    assert_same_outcome(got, outcome(lambda s: det(s)[0], stack))
    assert_same_outcome(outcome(cofactor, m), outcome(lambda s: cofactor(s)[0], stack))


@given(edge_entries, st.sampled_from([2, 3]))
@settings(max_examples=100, deadline=None, derandomize=True)
@example(1e300, 2)
@example(-0.0, 3)
def test_cpow_of_a_float_equals_the_list_path(x, k):
    got = outcome(_cpow, x, k)
    want = outcome(lambda v: _cpow([v], k)[0], x)
    if got[0] == "value":
        assert type(got[1]) is float
    assert_same_outcome(got, want)


# the largest float whose square is finite: its square is 1.7976931348623155e308
SQUARE_EDGE = 1.3407807929942596e154


@given(st.one_of(special, st.sampled_from([SQUARE_EDGE, -SQUARE_EDGE]),
                 st.floats(allow_nan=False, allow_infinity=False)))
@settings(max_examples=300, deadline=None, derandomize=True)
@example(5e-324)
@example(-0.0)
@example(1e300)
def test_square_is_the_float_power_or_names_its_overflow(v):
    try:
        want = v**2
    except OverflowError:
        with pytest.raises(OverflowError) as err:
            _square(v, "v = %r overflows in v^2")
        assert str(err.value) == "v = %r overflows in v^2" % (v,)
        return
    got = _square(v, "v = %r overflows in v^2")
    assert type(got) is float and got.hex() == want.hex()  # NaN's hex is 'nan'


def test_square_at_the_largest_finite_square():
    assert _square(SQUARE_EDGE, "%r") == 1.7976931348623155e308 == SQUARE_EDGE**2
    assert _square(-SQUARE_EDGE, "%r") == 1.7976931348623155e308
    up = math.nextafter(SQUARE_EDGE, math.inf)
    with pytest.raises(OverflowError) as err:
        _square(up, "stretch a = %r overflows in a^2")
    assert str(err.value) == "stretch a = 1.3407807929942597e+154 overflows in a^2"


positive = st.one_of(
    st.sampled_from([5e-324, 2.5e-310, 1e-300, 1e-160, 1.0, 1e300, sys.float_info.max]),
    st.floats(min_value=5e-324, max_value=sys.float_info.max),
)


@given(positive, positive)
@settings(max_examples=300, deadline=None, derandomize=True)
@example(1e-300, 1e-300)
@example(5e-324, 1.0)
def test_axial_rate_is_the_product_or_names_its_underflow(A, a):
    want = A * math.sqrt(a)
    if want == 0.0:
        with pytest.raises(ZeroDivisionError) as err:
            _axial_rate(A, a, "frame", "a1")
        assert str(err.value) == "frame: A sqrt(a1) underflows to 0 for A = %r, a1 = %r" % (A, a)
        return
    got = _axial_rate(A, a, "frame", "a1")
    assert type(got) is float and got.hex() == want.hex()


def test_axial_rate_names_where_and_the_stretch():
    with pytest.raises(ZeroDivisionError) as err:
        _axial_rate(1e-300, 1e-300, "linkage")
    assert str(err.value) == "linkage: A sqrt(a) underflows to 0 for A = 1e-300, a = 1e-300"
    with pytest.raises(ZeroDivisionError) as err:
        _axial_rate(1e-300, 1e-300, "closed-form window", "a2")
    assert str(err.value) == (
        "closed-form window: A sqrt(a2) underflows to 0 for A = 1e-300, a2 = 1e-300"
    )
