"""Reference geometry and the deformation families.

Two coordinated bodies occupy axis-aligned boxes that share the plane
X = x_c. Deformations are drawn from three families:

* TriaxialStretch: x = a X + b, transverse contraction 1/sqrt(a),
* StretchBend: plane sections X = const are bent onto cylinders of
  radius r(X) = sqrt(2 a X + b), with azimuthal stretch A r / sqrt(a)
  and axial stretch 1 / (A sqrt(a)),
* Homogeneous: x = F0 X + t (general affine, not necessarily isochoric).

The first two families are isochoric by construction; their gradients are
reported in the principal frame (radial, azimuthal, axial for bending).

Each family carries its formulas as methods: gradient(x), place(X),
radius(x) (None for the affine families), normal_position(X) (the image
coordinate along the load, r for bending), frame_place(X), image_volume
and stretch_max. The module functions check the family and delegate.
gradient and radius also take an array of abscissae and the X methods an
(..., 3) stack of points, giving point by point the floats of single
calls (which return a scalar result as a Python float).
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameters, NonPositiveJacobian, OutOfDomain
from .tensor3 import _scalar, as_mat3, det, sym_eigenvalues

__all__ = [
    "Box3",
    "TriaxialStretch",
    "StretchBend",
    "Homogeneous",
    "StretchTriple",
    "deformation_gradient",
    "principal_stretches",
    "jacobian",
    "placement",
    "displacement",
    "image_volume",
    "injectivity_check",
]

#: smallest admissible bending radius; r(X) below this is rejected
R_MIN = 1e-6

#: boxes are inflated by this amount for containment checks
DOMAIN_TOL = 1e-12

#: Gauss-Legendre points per axis of the default QuadratureRule
DEFAULT_ORDER = 8


@dataclass(frozen=True)
class Box3:
    """Axis-aligned box (x_lo, x_hi) x (y_lo, y_hi) x (z_lo, z_hi)."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    z_lo: float
    z_hi: float

    def __post_init__(self):
        for lo, hi, ax in (
            (self.x_lo, self.x_hi, "x"),
            (self.y_lo, self.y_hi, "y"),
            (self.z_lo, self.z_hi, "z"),
        ):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise InvalidParameters(
                    "box %s-range (%r, %r) must be finite with lo < hi" % (ax, lo, hi)
                )

    def volume(self):
        return (
            (self.x_hi - self.x_lo)
            * (self.y_hi - self.y_lo)
            * (self.z_hi - self.z_lo)
        )

    def contains(self, X, tol=DOMAIN_TOL):
        x, y, z = float(X[0]), float(X[1]), float(X[2])
        return (
            self.x_lo - tol <= x <= self.x_hi + tol
            and self.y_lo - tol <= y <= self.y_hi + tol
            and self.z_lo - tol <= z <= self.z_hi + tol
        )

    def center(self):
        return np.array(
            [
                0.5 * (self.x_lo + self.x_hi),
                0.5 * (self.y_lo + self.y_hi),
                0.5 * (self.z_lo + self.z_hi),
            ]
        )


def _diag(x, d0, d1, d2):
    # diagonal gradients, one per abscissa in x
    F = np.zeros(np.shape(x) + (3, 3))
    F[..., 0, 0], F[..., 1, 1], F[..., 2, 2] = d0, d1, d2
    return F


def _face_spans(domain, axis):
    """(lo, hi) of the two in-face axes of the faces {axis = const}, in xyz order."""
    return [(getattr(domain, c + "_lo"), getattr(domain, c + "_hi")) for c in "xyz" if c != axis]


def _face_grid(axis, value, us, vs):
    """Points of the face {axis = value}, shape (len(us), len(vs), 3).

    us and vs are coordinates along the in-face axes of _face_spans.
    """
    col = "xyz".index(axis)
    pts = np.empty((len(us), len(vs), 3))
    pts[..., col] = value
    pts[..., 1 if col == 0 else 0] = np.reshape(us, (-1, 1))
    pts[..., 1 if col == 2 else 2] = vs
    return pts


@functools.lru_cache(maxsize=None)
def _gauss_legendre(order):
    # one read-only copy per order, shared by every rule of that order
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Tensor-product Gauss-Legendre rule, exact through degree 2n-1 per axis."""

    order: int = DEFAULT_ORDER

    def __post_init__(self):
        if not (isinstance(self.order, int) and 1 <= self.order <= 64):
            raise InvalidParameters("quadrature order must be an int in [1, 64]")
        nodes, weights = _gauss_legendre(self.order)
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_weights", weights)

    def mapped(self, lo, hi):
        """Nodes and weights on (lo, hi)."""
        h = 0.5 * (hi - lo)
        return h * self._nodes + 0.5 * (hi + lo), h * self._weights


@dataclass(frozen=True)
class TriaxialStretch:
    """x = a X + b, y = Y / sqrt(a), z = Z / sqrt(a)."""

    a: float
    b: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise InvalidParameters("stretch a = %r must be positive" % (self.a,))
        if not math.isfinite(self.b):
            raise InvalidParameters("offset b must be finite")

    def gradient(self, x):
        s = 1.0 / math.sqrt(self.a)
        return _diag(x, self.a, s, s)

    def place(self, X):
        X = np.asarray(X, dtype=float)
        s = 1.0 / math.sqrt(self.a)
        return np.stack([self.normal_position(X), s * X[..., 1], s * X[..., 2]], axis=-1)

    def radius(self, x):
        return None

    def normal_position(self, X):
        return _scalar(self.a * np.asarray(X, dtype=float)[..., 0] + self.b)

    def frame_place(self, X):
        return self.place(X)

    def image_volume(self, domain):
        return domain.volume()

    def stretch_max(self, domain):
        return max(self.a, 1.0 / math.sqrt(self.a))


@dataclass(frozen=True)
class StretchBend:
    """Bending about the z axis: r(X) = sqrt(2 a X + b), theta = A Y / sqrt(a)."""

    A: float
    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.A) and self.A > 0.0):
            raise InvalidParameters("angular rate A = %r must be positive" % (self.A,))
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise InvalidParameters("stretch a = %r must be positive" % (self.a,))
        if not math.isfinite(self.b):
            raise InvalidParameters("offset b must be finite")

    def rho(self, x):
        """Squared bend radius 2 a x + b; raises at the first x below R_MIN^2."""
        rho = 2.0 * self.a * np.asarray(x, dtype=float) + self.b
        low = rho < R_MIN**2
        if low.any():
            i = np.argmax(low)
            raise InvalidParameters(
                "bending radius^2 = %.3e below minimum at X = %.6g"
                % (np.ravel(rho)[i], np.ravel(x)[i])
            )
        return _scalar(rho)

    def radius(self, x):
        return _scalar(np.sqrt(self.rho(x)))

    def frame(self, r):
        """Gradient on the cylinder of radius r, in (e_r, e_theta, e_z)."""
        sa = math.sqrt(self.a)
        return _diag(r, self.a / r, self.A * r / sa, 1.0 / (self.A * sa))

    def gradient(self, x):
        return self.frame(self.radius(x))

    def place(self, X):
        X = np.asarray(X, dtype=float)
        chi = self.frame_place(X)
        r, th = chi[..., 0], self.A * X[..., 1] / math.sqrt(self.a)
        return np.stack([r * np.cos(th), r * np.sin(th), chi[..., 2]], axis=-1)

    def normal_position(self, X):
        return self.radius(np.asarray(X, dtype=float)[..., 0])

    def frame_place(self, X):
        """(r, 0, z): the image point in the frame of gradient()."""
        X = np.asarray(X, dtype=float)
        r = self.radius(X[..., 0])
        sa = math.sqrt(self.a)
        return np.stack([r, np.zeros_like(r), X[..., 2] / (self.A * sa)], axis=-1)

    def image_volume(self, domain):
        r_lo = self.radius(domain.x_lo)
        r_hi = self.radius(domain.x_hi)
        sa = math.sqrt(self.a)
        # sectors overlap once the sweep exceeds a full turn
        theta = min(self.A * (domain.y_hi - domain.y_lo) / sa, 2.0 * math.pi)
        dz = domain.z_hi - domain.z_lo
        return 0.5 * (r_hi**2 - r_lo**2) * theta * dz / (self.A * sa)

    def stretch_max(self, domain):
        sa = math.sqrt(self.a)
        return max(
            self.a / self.radius(domain.x_lo),
            self.A * self.radius(domain.x_hi) / sa,
            1.0 / (self.A * sa),
        )


@dataclass(frozen=True)
class Homogeneous:
    """x = F0 X + t."""

    F0: np.ndarray
    t: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "F0", as_mat3(self.F0))
        t = np.asarray(self.t, dtype=float)
        if t.shape != (3,) or not np.all(np.isfinite(t)):
            raise InvalidParameters("translation t must be a finite 3-vector")
        object.__setattr__(self, "t", t)

    def gradient(self, x):
        return np.broadcast_to(self.F0, np.shape(x) + (3, 3)).copy()

    def place(self, X):
        return (self.F0 @ np.asarray(X, dtype=float)[..., None])[..., 0] + self.t

    def radius(self, x):
        return None

    def normal_position(self, X):
        return _scalar(self.place(X)[..., 0])

    def frame_place(self, X):
        return self.place(X)

    def image_volume(self, domain):
        J = det(self.F0)
        if J <= 0.0:
            raise NonPositiveJacobian("det F0 = %.6g" % J)
        return (
            J
            * (domain.x_hi - domain.x_lo)
            * (domain.y_hi - domain.y_lo)
            * (domain.z_hi - domain.z_lo)
        )

    def stretch_max(self, domain):
        return principal_stretches(self, (0.0, 0.0, 0.0)).max()


@dataclass(frozen=True)
class StretchTriple:
    """Principal stretches in family order (not sorted)."""

    l1: float
    l2: float
    l3: float

    def as_tuple(self):
        return (self.l1, self.l2, self.l3)

    def max(self):
        return max(self.l1, self.l2, self.l3)


_FAMILIES = (TriaxialStretch, StretchBend, Homogeneous)


def _family(map_):
    """map_ itself; raises for a map outside the three families."""
    if not isinstance(map_, _FAMILIES):
        raise InvalidParameters("unknown deformation map %r" % (map_,))
    return map_


def _check_domain(X, domain):
    if domain is not None and not domain.contains(X):
        raise OutOfDomain("point %s outside reference box" % (np.asarray(X),))


def deformation_gradient(map_, X, domain=None):
    """Deformation gradient at X.

    For TriaxialStretch and Homogeneous this is the Cartesian gradient;
    for StretchBend it is expressed in the local principal frame
    (e_r, e_theta, e_z), where it is diagonal.
    """
    _check_domain(X, domain)
    return _family(map_).gradient(float(X[0]))


def principal_stretches(map_, X, domain=None):
    """Principal stretches at X, in family order."""
    F = deformation_gradient(map_, X, domain)
    if not isinstance(map_, Homogeneous):
        return StretchTriple(F[0, 0], F[1, 1], F[2, 2])
    # general affine: singular values, descending
    w = sym_eigenvalues(F.T @ F)
    w = [math.sqrt(max(v, 0.0)) for v in w]
    return StretchTriple(*w)


def jacobian(map_, X, domain=None):
    """det of the deformation gradient; raises if not positive."""
    J = det(deformation_gradient(map_, X, domain))
    if J <= 0.0:
        raise NonPositiveJacobian("det F = %.6g at X = %s" % (J, np.asarray(X)))
    return J


def placement(map_, X, domain=None):
    """Image point chi(X) in Cartesian coordinates."""
    _check_domain(X, domain)
    return _family(map_).place(X)


def displacement(map_, X, domain=None):
    """u(X) = chi(X) - X in Cartesian coordinates."""
    return placement(map_, X, domain) - np.asarray(X, dtype=float)


def image_volume(map_, domain):
    """Volume of chi(domain), analytic per family."""
    return _family(map_).image_volume(domain)


def _node_sum(f, *ws):
    """Tensor-product quadrature sum of the node values f.

    Each term is ((w0[i] * w1[j]) * ...) * f[i, j, ...], added in node order
    from 0.0 (cumsum is sequential): the float a node loop gives.
    """
    terms = functools.reduce(np.multiply.outer, ws) * f
    return np.cumsum(np.concatenate(([0.0], terms.ravel())))[-1]


def injectivity_check(map_, domain, quad_order=8):
    """Volume form of the injectivity test.

    True iff the integral of det F over the reference box does not exceed
    the geometric volume of the image (up to quadrature tolerance). The
    families satisfy it with equality; a map that winds by more than a
    full turn fails.
    """
    rule = QuadratureRule(quad_order)
    xs, wx = rule.mapped(domain.x_lo, domain.x_hi)
    ys, wy = rule.mapped(domain.y_lo, domain.y_hi)
    zs, wz = rule.mapped(domain.z_lo, domain.z_hi)
    # det F depends on x alone; (x, ys[0], zs[0]) is the first node at x
    Js = [jacobian(map_, (x, ys[0], zs[0])) for x in xs]
    total = _node_sum(np.reshape(Js, (-1, 1, 1)), wx, wy, wz)
    vol = image_volume(map_, domain)
    return total <= vol + 1e-9 * max(1.0, abs(vol))
