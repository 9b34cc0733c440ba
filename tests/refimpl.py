"""Plain references for quantities the package computes in stacked form.

No package code calls these. The tests compare the package against them:
the criteria's quadratic forms (bounds._forms) against one
hessian_quadratic_form call per probe and station, the complementary
energy's density stack against complementary_density, and the energies'
face sums (energy._face_integral) against integrate_face, which evaluates
its integrand node by node. linked_stretch_pair is a triaxial fixture.
"""

import numpy as np

from contactbounds.energy import QuadratureRule, _check_finite, _face_integral
from contactbounds.material import _check_model, piola_stress, strain_energy
from contactbounds.states import triaxial_system
from contactbounds.tensor3 import _square, cofactor, ddot


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
