"""Dense 3x3 tensor algebra.

Everything here is closed form. The matrices are tiny and appear in inner
loops, so we avoid LAPACK round trips and keep results bit-reproducible
across runs of the same interpreter. det, cofactor and ddot also take a
(..., 3, 3) stack and give, matrix by matrix, the floats of a single
call. A single matrix is evaluated in Python floats: their operations are
the IEEE operations numpy applies to a stack, so one call gives the
stack's floats without numpy's overhead on every entry.
"""

import math

import numpy as np

from .errors import InvalidParameters

__all__ = [
    "as_mat3",
    "det",
    "cofactor",
    "ddot",
]


def as_mat3(m):
    """Validate and convert to a float64 (3, 3) array."""
    a = np.asarray(m, dtype=float)
    if a.shape != (3, 3):
        raise InvalidParameters("expected a 3x3 matrix, got shape %s" % (a.shape,))
    if not np.all(np.isfinite(a)):
        raise InvalidParameters("matrix entries must be finite")
    return a


def det(m):
    """Determinant by cofactor expansion along the first row; a Python
    float for one matrix."""
    m = np.asarray(m, dtype=float)
    # the entries column by column: Python floats for one matrix, else
    # arrays holding the stack axes reversed
    (m00, m10, m20), (m01, m11, m21), (m02, m12, m22) = m.T.tolist() if m.ndim == 2 else m.T
    d = (m00 * (m11 * m22 - m12 * m21) - m01 * (m10 * m22 - m12 * m20)
         + m02 * (m10 * m21 - m11 * m20))
    return d if m.ndim == 2 else d.T  # .T puts the stack axes back in order


def cofactor(m):
    """Cofactor matrix (signed minors), defined for singular input too.

    Satisfies cof(m).T @ m = det(m) * I and, for invertible m,
    cof(m) = det(m) * inv(m).T. A (..., 3, 3) stack gives the stack of
    cofactors, each entry the same float as for its matrix alone.
    """
    m = np.asarray(m, dtype=float)
    (m00, m10, m20), (m01, m11, m21), (m02, m12, m22) = m.T.tolist() if m.ndim == 2 else m.T
    c = np.array(
        [
            [m11 * m22 - m12 * m21, m12 * m20 - m10 * m22, m10 * m21 - m11 * m20],
            [m02 * m21 - m01 * m22, m00 * m22 - m02 * m20, m01 * m20 - m00 * m21],
            [m01 * m12 - m02 * m11, m02 * m10 - m00 * m12, m00 * m11 - m01 * m10],
        ]
    )
    # c is indexed (i, j, ...); move the stack axes back to the front
    return c if m.ndim == 2 else c.T.swapaxes(-2, -1)


def _scalar(v):
    # a single call's scalar result as a Python float
    return float(v) if np.ndim(v) == 0 else v


def _cpow(v, k, msg=None):
    # v ** k by C pow, value by value: numpy's array power can differ in
    # the last bit, so a stack gives the floats of single calls. Where a
    # power overflows, the error names the first value that overflows in
    # place of Python's bare errno text: msg % (value,), or by default as
    # the radius it is for every caller (a bubble weight stays below 1)
    try:
        if type(v) is float:
            return v**k
        return _scalar(np.reshape([x**k for x in np.ravel(v).tolist()], np.shape(v)))
    except OverflowError:
        if type(v) is not float:
            for x in np.ravel(v).tolist():
                _cpow(x, k, msg)  # raises at the first x whose power overflows
        raise OverflowError(msg % (v,) if msg else "radius r = %r overflows in r^%d" % (v, k)) from None


def _square(v, msg):
    # v ** 2 by Python's power; where a float's overflows, msg % (v,) names
    # the parameter (an int's or a numpy scalar's power raises no OverflowError)
    return _cpow(v, 2, msg) if type(v) is float else v**2


def _axial_rate(A, a, where, name="a"):
    # A sqrt(a), whose inverse is a bending body's axial stretch; where it
    # underflows to 0 the message names A and the stretch, not the division
    k = A * math.sqrt(a)
    if k == 0.0:
        msg = "%s: A sqrt(%s) underflows to 0 for A = %r, %s = %r"
        raise ZeroDivisionError(msg % (where, name, A, name, a))
    return k


def _sum9(m):
    # sum of each trailing 3x3 block as one contiguous run of 9, in numpy's
    # pairwise order (a strided axis would be summed sequentially)
    m = np.ascontiguousarray(m)
    return np.sum(m.reshape(-1, 9), axis=-1).reshape(m.shape[:-2])


def ddot(a, b):
    """Full contraction a : b = sum_ij a_ij b_ij, a float per matrix."""
    return _scalar(_sum9(np.asarray(a, dtype=float) * np.asarray(b, dtype=float)))

