"""Two-body states on the standard unit geometry.

Body 1 occupies (0, 1/2) x (0, 1)^2 and body 2 occupies (1/2, 1) x (0, 1)^2.
triaxial_system and bending_system are the one constructor per family;
they close the contact gap and equilibrate the pressures by default.
Built on them:

* equilibrium pairs, one per family: stretches chosen so the state
  satisfies the full static admissibility conditions for the load tau
  (the states whose potential and complementary energies coincide),
* the linked bending pair: constant pressures read off the contact-plane
  Cauchy traction, p_i = C_i lambda_n^2 - tau. It realizes the bookkeeping
  behind the closed-form load interval and generally does not equilibrate
  the transverse faces.
"""

import dataclasses
import math

from .errors import InvalidParameters
from .kinematics import Box3, R_MIN, StretchBend, TriaxialStretch
from .material import Constant, NeoHookeanIncompressible
from .contact import (
    GAP_TOL,
    BodySpec,
    DirichletData,
    SystemSpec,
    nominal_traction,
    solve_radial_pressure,
)
from .tensor3 import _square

__all__ = [
    "BOX1",
    "BOX2",
    "load_from_stretch_ratio",
    "stretch_ratio_from_load",
    "triaxial_system",
    "bending_system",
    "bending_b2",
    "stretch_pair",
    "bend_pair",
    "linked_bend_pair",
]

BOX1 = Box3(0.0, 0.5, 0.0, 1.0, 0.0, 1.0)
BOX2 = Box3(0.5, 1.0, 0.0, 1.0, 0.0, 1.0)


def _load(C, a):
    # C (a - 1/a^2), +-inf where the product overflows; the ends of
    # stretch_ratio_from_load's range take it so
    if a <= 0.0:
        raise InvalidParameters("stretch must be positive")
    a2 = _square(a, "load from stretch: stretch a = %r overflows in a^2")
    if a2 == 0.0 or 1.0 / a2 == math.inf:  # a^2 underflows to 0 or below 1 / max float
        raise OverflowError("load from stretch: 1/a^2 overflows for stretch a = %r" % (a,))
    return C * (a - 1.0 / a2)


def load_from_stretch_ratio(C, a):
    """Axial nominal traction sustained by the free triaxial stretch a."""
    load = _load(C, a)
    if math.isinf(load):
        msg = "load from stretch: C (a - 1/a^2) overflows for C = %r, stretch a = %r"
        raise OverflowError(msg % (C, a))
    return load


def stretch_ratio_from_load(C, tau):
    """Invert load_from_stretch_ratio; the map is strictly increasing.

    The stretch is the positive root of f(a) = a^3 - k a^2 - 1, k = tau / C.
    Newton starts at a = max(1, k + 1), where f >= 0; above the root f is
    increasing and convex, so the iterates fall monotonically and the
    first one that does not has reached rounding level.
    """
    if not (_load(C, 1e-9) <= tau <= _load(C, 1e9)):  # an infinite end takes every tau
        raise InvalidParameters("no stretch ratio for tau = %r" % (tau,))
    k = tau / C
    a = max(1.0, k + 1.0)
    while True:
        nxt = a - (a * a * (a - k) - 1.0) / (a * (3.0 * a - 2.0 * k))
        if not nxt < a:
            return a
        a = nxt


def triaxial_system(
    C1, C2, a1, a2, b1=None, b2=0.0, p1=None, p2=None, g=0.0, d_allow=0.0
):
    """Triaxial pair; body 2's map is the held Dirichlet data.

    By default body 1's offset closes the contact gap against body 2 and
    each body carries the reaction pressure p = C / a that frees its
    transverse faces.
    """
    if b1 is None:
        b1 = (a2 - a1) * BOX1.x_hi + b2
    map1 = TriaxialStretch(a1, b1)
    map2 = TriaxialStretch(a2, b2)
    p1 = C1 / a1 if p1 is None else p1
    p2 = C2 / a2 if p2 is None else p2
    body1 = BodySpec(BOX1, NeoHookeanIncompressible(C1), map1, Constant(p1))
    body2 = BodySpec(BOX2, NeoHookeanIncompressible(C2), map2, Constant(p2))
    return SystemSpec(
        body1, body2, d_allow=d_allow, g=g, dirichlet=DirichletData(map2=map2)
    )


def bending_b2(a1, b1, a2):
    """Body 2's bending offset that closes the gap at body 1's outer radius."""
    return a1 + b1 - a2


def _radial(body, sigma):
    # the body under the radial equilibrium profile whose Cauchy radial
    # stress on the inner face is sigma
    return dataclasses.replace(body, pressure=solve_radial_pressure(body, sigma))


def bending_system(
    C1, C2, A, a1, a2, b1, b2=None, tau=0.0, p1=None, p2=None, g=0.0, d_allow=0.0
):
    """Bending pair; both maps are held Dirichlet data.

    By default body 2's offset closes the contact gap and each body
    carries Rivlin's radial equilibrium profile: body 1 anchored by the
    dead load tau (per reference area) on its inner face, body 2 by the
    nominal traction of body 1 across a closed interface, or by zero
    traction on an open one.
    """
    if b2 is None:
        b2 = bending_b2(a1, b1, a2)
    map1 = StretchBend(A, a1, b1)
    map2 = StretchBend(A, a2, b2)
    body1 = BodySpec(BOX1, NeoHookeanIncompressible(C1), map1)
    if p1 is None:
        body1 = _radial(body1, tau * a1 / map1.radius(BOX1.x_lo))
    else:
        body1 = dataclasses.replace(body1, pressure=Constant(p1))
    body2 = BodySpec(BOX2, NeoHookeanIncompressible(C2), map2)
    if p2 is None:
        r2 = map2.radius(BOX2.x_lo)
        closed = abs(map1.radius(BOX1.x_hi) - r2) <= GAP_TOL
        # an open interface face is traction free
        sigma = nominal_traction(body1, BOX1.x_hi) * a2 / r2 if closed else 0.0
        body2 = _radial(body2, sigma)
    else:
        body2 = dataclasses.replace(body2, pressure=Constant(p2))
    dirichlet = DirichletData(map1=map1, map2=map2)
    return SystemSpec(body1, body2, d_allow=d_allow, g=g, dirichlet=dirichlet)


def stretch_pair(C1, C2, tau, b2=0.0, g=0.0, d_allow=0.0):
    """Equilibrium triaxial pair under the axial dead load tau."""
    a1 = stretch_ratio_from_load(C1, tau)
    a2 = stretch_ratio_from_load(C2, tau)
    return triaxial_system(C1, C2, a1, a2, b2=b2, g=g, d_allow=d_allow)


def bend_pair(C1, C2, A, a1, a2, rho_out, tau, g=0.0):
    """Equilibrium bending pair with outer held square radius rho_out."""
    rho2i = rho_out - a2
    rho1i = rho2i - a1
    if rho1i < R_MIN**2:
        raise InvalidParameters("inner square radius %.3e below minimum" % rho1i)
    return bending_system(C1, C2, A, a1, a2, rho1i, b2=rho2i - a2, tau=tau, g=g)


def linked_bend_pair(C1, C2, A, a1, a2, b1, tau, g=0.0):
    """Bending pair with contact-linked constant pressures.

    The contact radius is body 1's outer radius; p_i = C_i a_i^2 / r_c^2 - tau.
    """
    rho_c = a1 + b1
    if b1 < R_MIN**2 or rho_c <= 0.0:
        raise InvalidParameters("bending offsets give nonpositive radius")
    p1 = C1 * _square(a1, "linked bend pair: stretch a1 = %r overflows in a1^2") / rho_c - tau
    p2 = C2 * _square(a2, "linked bend pair: stretch a2 = %r overflows in a2^2") / rho_c - tau
    return bending_system(C1, C2, A, a1, a2, b1, p1=p1, p2=p2, g=g)
