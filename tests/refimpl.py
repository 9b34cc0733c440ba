"""Plain references for quantities the package computes in stacked form.

No package code calls these. The tests compare the package against them:
the criteria's quadratic forms (bounds._forms) against one
hessian_quadratic_form call per probe and station, the complementary
energy's density stack against complementary_density, and the energies'
face sums (energy._face_integral) against integrate_face, which evaluates
its integrand node by node. linked_stretch_pair is a triaxial fixture.
cauchy_stress is the full Cauchy stress of one gradient or a stack.

The admissibility checks' numpy forms, each over its full sample grid,
are the references of contact's Python-float kernels: constraint_residual
of contact._constraint, cauchy_traction of contact._sigma_nn, flank of
contact._flank (over 10 of the 50 rows), axial_difference of
contact._axial_difference and neumann_residual of contact._neumann_residual.
"""

import math

import numpy as np

from contactbounds.contact import _abscissae, _face_points, _running_max, nominal_traction
from contactbounds.energy import QuadratureRule, _check_finite, _face_integral
from contactbounds.kinematics import StretchBend
from contactbounds.material import _check_det, _check_model, _piola, piola_stress, strain_energy
from contactbounds.states import triaxial_system
from contactbounds.tensor3 import _square, cofactor, ddot, det


def hessian_quadratic_form(model, F, pressure, G):
    """Second derivative of W + lambda (det F - 1) along G, lambda = -p.

    Uses the exact expansion det(F + t G) = det F + t cof(F):G
    + t^2 cof(G):F + t^3 det G, so the form is polynomial and exact.
    """
    _check_model(model)
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    return model.C * ddot(G, G) - pressure * 2.0 * ddot(cofactor(G), F)


def complementary_density(model, F, pressure=0.0):
    """W_c = P : F - W, evaluated from the same P and W."""
    F = np.asarray(F, dtype=float)
    P = piola_stress(model, F, pressure)
    return ddot(P, F) - strain_energy(model, F)


def integrate_face(fn, domain, axis, value, rule=None):
    """Integral of fn(X) over the face {axis = value} of the box."""
    def at_each_node(X):
        return np.array([[_check_finite(float(fn(P))) for P in row] for row in X])

    return _face_integral(at_each_node, domain, axis, value, rule or QuadratureRule())


def linked_stretch_pair(C1, C2, a1, a2, tau, g=0.0, b2=0.0):
    """Triaxial pair with contact-linked constant pressures.

    p_i = C_i a_i^2 - tau makes both Cauchy contact tractions equal tau.
    """
    p1 = C1 * _square(a1, "linked stretch pair: stretch a1 = %r overflows in a1^2") - tau
    p2 = C2 * _square(a2, "linked stretch pair: stretch a2 = %r overflows in a2^2") - tau
    return triaxial_system(C1, C2, a1, a2, b2=b2, p1=p1, p2=p2, g=g)


def cauchy_stress(model, F, pressure=0.0):
    """sigma = J^{-1} P F^T, with one determinant check."""
    F = np.asarray(F, dtype=float)
    J = _check_det(F)
    _check_model(model)
    sigma = _piola(model, F, pressure) @ np.swapaxes(F, -1, -2)
    return sigma / (J if F.ndim == 2 else J[..., None, None])  # one matrix: a float J


def constraint_residual(body):
    """max |det F - 1| over the 5 abscissae of a sample grid, as one stack."""
    return _running_max(0.0, np.abs(det(body.map.gradient(_abscissae(body, 5))) - 1.0))


def cauchy_traction(body, x_face):
    """Cauchy sigma_nn on the face X = x_face from the full stress tensor."""
    return float(cauchy_stress(body.material, *body.state(x_face))[0, 0])


def flank(body, dmap):
    """max |n . chi| over the 5 x 5 grids of both y faces."""
    X = _face_points(body.domain, "y", (body.domain.y_lo, body.domain.y_hi))
    th = dmap.A * X[:, 1] / math.sqrt(dmap.a)
    n = np.stack([-np.sin(th), np.cos(th), np.zeros_like(th)], axis=-1)
    return _running_max(0.0, np.abs(n[:, None, :] @ body.map.place(X)[..., None]))


def axial_difference(body, dmap):
    """max |axial coordinate - the data's| over the 5 x 5 grids of both z faces."""
    X = _face_points(body.domain, "z", (body.domain.z_lo, body.domain.z_hi))
    dz = body.map.frame_place(X)[:, 2] - dmap.frame_place(X)[:, 2]
    return _running_max(0.0, np.abs(dz))


def neumann_residual(system, tau):
    """The dead load and traction-free faces, from each body's full Piola stress."""
    b1, b2 = system.body1, system.body2
    if isinstance(b1.map, StretchBend):
        # dead load acts on the inner face, per unit reference area
        return abs(nominal_traction(b1, b1.domain.x_lo) - tau)
    worst = 0.0
    for body, loaded in ((b1, True), (b2, False)):
        P = piola_stress(body.material, *body.state(0.0))
        target = np.zeros((3, 3))
        if loaded:
            target[0, 0] = tau
        # column j is the traction on faces with normal +/- e_j; the
        # transverse faces are traction free, the loaded face carries tau
        resid = np.abs(P - target)
        if not loaded:
            resid[:, 0] = 0.0  # body 2 outer face is placement-controlled
        worst = max(worst, float(np.max(resid)))
    return worst
