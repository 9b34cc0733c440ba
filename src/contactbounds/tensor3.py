"""Dense 3x3 tensor algebra.

Everything here is closed form. The matrices are tiny and appear in inner
loops, so we avoid LAPACK round trips and keep results bit-reproducible
across runs of the same interpreter. det, cofactor and ddot also take a
(..., 3, 3) stack and give, matrix by matrix, the floats of a single call.
"""

import math

import numpy as np

from .errors import InvalidParameters, NotSymmetric, SingularMatrix

__all__ = [
    "as_mat3",
    "det",
    "inverse",
    "cofactor",
    "ddot",
    "sym_eigenvalues",
]

#: matrices with |det| at or below this are treated as singular
SINGULAR_TOL = 1e-14

#: max allowed asymmetry |m - m.T| for the eigenvalue routine
SYMMETRY_TOL = 1e-10


def as_mat3(m):
    """Validate and convert to a float64 (3, 3) array."""
    a = np.asarray(m, dtype=float)
    if a.shape != (3, 3):
        raise InvalidParameters("expected a 3x3 matrix, got shape %s" % (a.shape,))
    if not np.all(np.isfinite(a)):
        raise InvalidParameters("matrix entries must be finite")
    return a


def det(m):
    """Determinant by cofactor expansion along the first row."""
    (m00, m10, m20), (m01, m11, m21), (m02, m12, m22) = np.asarray(m, dtype=float).T
    return (m00 * (m11 * m22 - m12 * m21) - m01 * (m10 * m22 - m12 * m20)
            + m02 * (m10 * m21 - m11 * m20))


def cofactor(m):
    """Cofactor matrix (signed minors), defined for singular input too.

    Satisfies cof(m).T @ m = det(m) * I and, for invertible m,
    cof(m) = det(m) * inv(m).T. A (..., 3, 3) stack gives the stack of
    cofactors, each entry the same float as for its matrix alone.
    """
    m = np.asarray(m, dtype=float)
    (m00, m10, m20), (m01, m11, m21), (m02, m12, m22) = m.T
    c = np.array(
        [
            [m11 * m22 - m12 * m21, m12 * m20 - m10 * m22, m10 * m21 - m11 * m20],
            [m02 * m21 - m01 * m22, m00 * m22 - m02 * m20, m01 * m20 - m00 * m21],
            [m01 * m12 - m02 * m11, m02 * m10 - m00 * m12, m00 * m11 - m01 * m10],
        ]
    )
    # c is indexed (i, j, ...); move the stack axes back to the front
    return c.T.swapaxes(-2, -1)


def inverse(m):
    """Inverse via the adjugate. Raises SingularMatrix when |det| <= tol."""
    m = np.asarray(m, dtype=float)
    d = det(m)
    if abs(d) <= SINGULAR_TOL:
        raise SingularMatrix("|det| = %.3e <= %.1e" % (abs(d), SINGULAR_TOL))
    return cofactor(m).T / d


def _scalar(v):
    # a single call's scalar result as a Python float
    return float(v) if np.ndim(v) == 0 else v


def _cpow(v, k):
    # v ** k by C pow, value by value: numpy's array power can differ in
    # the last bit, so a stack gives the floats of single calls
    return _scalar(np.reshape([x**k for x in np.ravel(v).tolist()], np.shape(v)))


def _sum9(m):
    # sum of each trailing 3x3 block as one contiguous run of 9, in numpy's
    # pairwise order (a strided axis would be summed sequentially)
    m = np.ascontiguousarray(m)
    return np.sum(m.reshape(-1, 9), axis=-1).reshape(m.shape[:-2])


def ddot(a, b):
    """Full contraction a : b = sum_ij a_ij b_ij, a float per matrix."""
    return _scalar(_sum9(np.asarray(a, dtype=float) * np.asarray(b, dtype=float)))


def sym_eigenvalues(m):
    """Eigenvalues of a symmetric 3x3 matrix, descending.

    Uses the trigonometric solution of the characteristic cubic. Raises
    NotSymmetric when max|m - m.T| exceeds the symmetry tolerance.
    """
    m = np.asarray(m, dtype=float)
    asym = np.max(np.abs(m - m.T))
    if asym > SYMMETRY_TOL:
        raise NotSymmetric("max|m - m.T| = %.3e" % asym)
    a = 0.5 * (m + m.T)
    p1 = a[0, 1] ** 2 + a[0, 2] ** 2 + a[1, 2] ** 2
    q = (a[0, 0] + a[1, 1] + a[2, 2]) / 3.0
    if p1 == 0.0:
        # already diagonal
        return tuple(sorted((a[0, 0], a[1, 1], a[2, 2]), reverse=True))
    p2 = (
        (a[0, 0] - q) ** 2
        + (a[1, 1] - q) ** 2
        + (a[2, 2] - q) ** 2
        + 2.0 * p1
    )
    p = math.sqrt(p2 / 6.0)
    b = (a - q * np.eye(3)) / p
    r = det(b) / 2.0
    # clamp against roundoff drift outside [-1, 1]
    r = min(1.0, max(-1.0, r))
    phi = math.acos(r) / 3.0
    eig1 = q + 2.0 * p * math.cos(phi)
    eig3 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    eig2 = 3.0 * q - eig1 - eig3
    return (eig1, eig2, eig3)
