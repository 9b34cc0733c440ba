"""Reference geometry and the deformation families.

Two coordinated bodies occupy axis-aligned boxes that share the plane
X = x_c. Deformation maps are drawn from three families:

* TriaxialStretch: x = a X + b, transverse contraction 1/sqrt(a),
* StretchBend: plane sections X = const are bent onto cylinders of
  radius r(X) = sqrt(2 a X + b), with azimuthal stretch A r / sqrt(a)
  and axial stretch 1 / (A sqrt(a)),
* Homogeneous: x = F0 X + t (general affine, not necessarily isochoric).

Bodies deform in the first two, isochoric by construction, with
gradients in the principal frame (radial, azimuthal, axial for bending),
so their principal stretches are the gradient's diagonal; a Homogeneous
map serves as Dirichlet data and in the module functions.

Each family carries gradient(x), place(X), frame_place(X) and
image_volume; the body families also radius(x) (None for triaxial),
normal_position(X) (the image coordinate along the load, r for bending),
stretch_max, i1_terms() (I1 = |F|^2) and volume_integral (the exact
integral of c_inv / rho + c_sq rho + c0, rho the squared bend radius, a
constant density for triaxial). The module functions check the family
and delegate.
gradient and radius also take an array of abscissae and the X methods an
(..., 3) stack of points, giving point by point the floats of single
calls (which return a scalar result as a Python float).

injectivity_check takes the volume form of the injectivity test exactly,
as det F is constant across the box in every family: no quadrature here.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameters, NonPositiveJacobian
from .tensor3 import _axial_rate, _scalar, as_mat3, det

__all__ = [
    "Box3",
    "TriaxialStretch",
    "StretchBend",
    "Homogeneous",
    "deformation_gradient",
    "jacobian",
    "image_volume",
    "injectivity_check",
]

#: smallest admissible bending radius; r(X) below this is rejected
R_MIN = 1e-6

_LOW_RADIUS = "bending radius^2 = %.3e below minimum at X = %.6g"


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


def _points(c0, c1, c2):
    # np.stack([c0, c1, c2], axis=-1) for coordinates of one shape, filled
    # into one array at a third of np.stack's cost
    pts = np.empty(np.shape(c0) + (3,))
    pts[..., 0], pts[..., 1], pts[..., 2] = c0, c1, c2
    return pts


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

    def _diagonal(self, r=None):
        """The gradient's diagonal a, s, s, s = 1 / sqrt(a), the same at every x."""
        s = 1.0 / math.sqrt(self.a)
        return self.a, s, s

    def gradient(self, x):
        return _diag(x, *self._diagonal())

    def place(self, X):
        X = np.asarray(X, dtype=float)
        s = self._diagonal()[1]
        return _points(self.normal_position(X), s * X[..., 1], s * X[..., 2])

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

    def i1_terms(self):
        return 0.0, 0.0, self.a * self.a + 2.0 / self.a

    def volume_integral(self, domain, c_inv, c_sq, c0):
        return c0 * domain.volume()  # a constant density: c_inv = c_sq = 0


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
        if type(x) is float:
            # Python's arithmetic, correctly rounded as numpy's, without its overhead
            rho = float(2.0 * self.a * x + self.b)
            if rho < R_MIN**2:
                raise InvalidParameters(_LOW_RADIUS % (rho, x))
            return rho
        rho = 2.0 * self.a * np.asarray(x, dtype=float) + self.b
        low = rho < R_MIN**2
        if low.any():
            i = np.argmax(low)
            raise InvalidParameters(_LOW_RADIUS % (np.ravel(rho)[i], np.ravel(x)[i]))
        return _scalar(rho)

    def radius(self, x):
        rho = self.rho(x)
        return math.sqrt(rho) if type(x) is float else _scalar(np.sqrt(rho))

    def _axial(self):
        """A sqrt(a), whose inverse is the axial stretch; raises where it
        underflows to 0, naming A and a."""
        return _axial_rate(self.A, self.a, "axial stretch")

    def _diagonal(self, r):
        """The diagonal of frame(r): a / r, A r / sqrt(a), 1 / (A sqrt(a)),
        Python floats for a float r."""
        k = self._axial()
        return self.a / r, self.A * r / math.sqrt(self.a), 1.0 / k

    def frame(self, r):
        """Gradient on the cylinder of radius r, in (e_r, e_theta, e_z)."""
        return _diag(r, *self._diagonal(r))

    def gradient(self, x):
        return self.frame(self.radius(x))

    def place(self, X):
        X = np.asarray(X, dtype=float)
        chi = self.frame_place(X)
        r, th = chi[..., 0], self.A * X[..., 1] / math.sqrt(self.a)
        return _points(r * np.cos(th), r * np.sin(th), chi[..., 2])

    def _radius_at(self, X):
        # r at each point of X; one (3,) point takes radius's float path
        return self.radius(float(X[0]) if X.ndim == 1 else X[..., 0])

    def normal_position(self, X):
        return self._radius_at(np.asarray(X, dtype=float))

    def frame_place(self, X):
        """(r, 0, z): the image point in the frame of gradient()."""
        X = np.asarray(X, dtype=float)
        r = self._radius_at(X)
        return _points(r, 0.0, X[..., 2] / self._axial())

    def image_volume(self, domain):
        r_lo = self.radius(domain.x_lo)
        r_hi = self.radius(domain.x_hi)
        sa = math.sqrt(self.a)
        # sectors overlap once the sweep exceeds a full turn
        theta = min(self.A * (domain.y_hi - domain.y_lo) / sa, 2.0 * math.pi)
        dz = domain.z_hi - domain.z_lo
        return 0.5 * (r_hi**2 - r_lo**2) * theta * dz / self._axial()

    def stretch_max(self, domain):
        sa = math.sqrt(self.a)
        return max(
            self.a / self.radius(domain.x_lo),
            self.A * self.radius(domain.x_hi) / sa,
            1.0 / self._axial(),
        )

    def i1_terms(self):
        """I1 = (a / r)^2 + (A r / sqrt(a))^2 + (1 / (A sqrt(a)))^2 in rho = r^2."""
        t, z = self.A / math.sqrt(self.a), 1.0 / self._axial()
        return self.a * self.a, t * t, z * z

    def axial_piola(self, C, pressure):
        """P_zz = C F_zz - p F_rr F_tt in rho, for a pressure field's terms."""
        k = self._axial()
        return -k * pressure.c_inv, -k * pressure.c_sq, C / k - k * pressure.c0

    def volume_integral(self, domain, c_inv, c_sq, c0):
        """Integral over the box of c_inv / rho + c_sq rho + c0."""
        lo, hi = self.rho(domain.x_lo), self.rho(domain.x_hi)
        dx = domain.x_hi - domain.x_lo
        # ln(rho_hi / rho_lo) as log1p((rho_hi - rho_lo) / rho_lo), the
        # difference taken as 2 a dx and not from the rounded radii, so no
        # digits are lost as rho_hi / rho_lo -> 1
        log = math.log1p(2.0 * self.a * dx / lo) / (2.0 * self.a)
        fx = c_inv * log + c_sq * 0.5 * (lo + hi) * dx + c0 * dx
        return fx * (domain.y_hi - domain.y_lo) * (domain.z_hi - domain.z_lo)


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


_FAMILIES = (TriaxialStretch, StretchBend, Homogeneous)


def _family(map_):
    """map_ itself; raises for a map outside the three families."""
    if not isinstance(map_, _FAMILIES):
        raise InvalidParameters("unknown deformation map %r" % (map_,))
    return map_


def deformation_gradient(map_, X):
    """Deformation gradient at X.

    For TriaxialStretch and Homogeneous this is the Cartesian gradient;
    for StretchBend it is expressed in the local principal frame
    (e_r, e_theta, e_z), where it is diagonal.
    """
    return _family(map_).gradient(float(X[0]))


def jacobian(map_, X):
    """det of the deformation gradient; raises if not positive."""
    J = det(deformation_gradient(map_, X))
    if J <= 0.0:
        raise NonPositiveJacobian("det F = %.6g at X = %s" % (J, np.asarray(X)))
    return J


def image_volume(map_, domain):
    """Volume of chi(domain), analytic per family."""
    return _family(map_).image_volume(domain)


def injectivity_check(map_, domain):
    """Volume form of the injectivity test.

    True iff the integral of det F over the reference box does not exceed
    the geometric volume of the image (up to a 1e-9 relative tolerance).
    det F is constant across the box in every family, so the integral is
    det F at the box centre times the box volume; jacobian raises there
    for det F <= 0, and a NaN determinant passes it. The families satisfy
    the test with equality; a map that winds by more than a full turn
    fails.
    """
    total = jacobian(map_, domain.center()) * domain.volume()
    vol = image_volume(map_, domain)
    return total <= vol + 1e-9 * max(1.0, abs(vol))
