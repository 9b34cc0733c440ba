"""Ready-made two-body states on the standard unit geometry.

Body 1 occupies (0, 1/2) x (0, 1)^2 and body 2 occupies (1/2, 1) x (0, 1)^2.
Two constructions are provided for each family:

* equilibrium pairs: pressures chosen so the state satisfies the full
  static admissibility conditions for the load tau (these are the states
  whose potential and complementary energies coincide),
* linked pairs: constant pressures read off the contact-plane Cauchy
  traction, p_i = C_i lambda_n^2 - tau. These realize the bookkeeping
  behind the closed-form load intervals and generally do not equilibrate
  the transverse faces.
"""

import dataclasses
import math

from .errors import InvalidParameters
from .kinematics import Box3, R_MIN, StretchBend, TriaxialStretch
from .material import Constant, NeoHookeanIncompressible
from .contact import BodySpec, DirichletData, SystemSpec, solve_radial_pressure

__all__ = [
    "BOX1",
    "BOX2",
    "load_from_stretch_ratio",
    "stretch_ratio_from_load",
    "stretch_pair",
    "bend_pair",
    "linked_stretch_pair",
    "linked_bend_pair",
]

BOX1 = Box3(0.0, 0.5, 0.0, 1.0, 0.0, 1.0)
BOX2 = Box3(0.5, 1.0, 0.0, 1.0, 0.0, 1.0)


def load_from_stretch_ratio(C, a):
    """Axial nominal traction sustained by the free triaxial stretch a."""
    if a <= 0.0:
        raise InvalidParameters("stretch must be positive")
    return C * (a - 1.0 / a**2)


def stretch_ratio_from_load(C, tau):
    """Invert load_from_stretch_ratio; the map is strictly increasing.

    The stretch is the positive root of f(a) = a^3 - k a^2 - 1, k = tau / C.
    Newton starts at a = max(1, k + 1), where f >= 0; above the root f is
    increasing and convex, so the iterates fall monotonically and the
    first one that does not has reached rounding level.
    """
    if not (
        load_from_stretch_ratio(C, 1e-9) <= tau <= load_from_stretch_ratio(C, 1e9)
    ):
        raise InvalidParameters("no stretch ratio for tau = %r" % (tau,))
    k = tau / C
    a = max(1.0, k + 1.0)
    while True:
        nxt = a - (a * a * (a - k) - 1.0) / (a * (3.0 * a - 2.0 * k))
        if not nxt < a:
            return a
        a = nxt


def stretch_pair(C1, C2, tau, b2=0.0, g=0.0, d_allow=0.0):
    """Equilibrium triaxial pair under the axial dead load tau.

    Both bodies carry the reaction pressure p = C / a that frees their
    transverse faces; the stretches balance the load and the offsets
    close the contact gap against the held placement of body 2.
    """
    a1 = stretch_ratio_from_load(C1, tau)
    a2 = stretch_ratio_from_load(C2, tau)
    xc = BOX1.x_hi
    b1 = (a2 - a1) * xc + b2
    body1 = BodySpec(
        BOX1,
        NeoHookeanIncompressible(C1),
        TriaxialStretch(a1, b1),
        Constant(C1 / a1),
    )
    map2 = TriaxialStretch(a2, b2)
    body2 = BodySpec(BOX2, NeoHookeanIncompressible(C2), map2, Constant(C2 / a2))
    return SystemSpec(
        body1, body2, d_allow=d_allow, g=g, dirichlet=DirichletData(map2=map2)
    )


def bend_pair(C1, C2, A, a1, a2, rho_out, tau, g=0.0):
    """Equilibrium bending pair with outer held square radius rho_out.

    The radial stress in body 1 is anchored by the dead load on the
    inner face (per reference area) and propagated outward by the radial
    momentum balance; body 2 is anchored by nominal traction matching at
    the interface. Every parameter choice yields an equilibrium state
    for its own held-face data.
    """
    rho2o = rho_out
    rho2i = rho2o - a2
    rho1o = rho2i
    rho1i = rho1o - a1
    if rho1i < R_MIN**2:
        raise InvalidParameters("inner square radius %.3e below minimum" % rho1i)
    b1 = rho1i
    b2 = rho2i - a2
    map1 = StretchBend(A, a1, b1)
    map2 = StretchBend(A, a2, b2)
    r0, r1 = math.sqrt(rho1i), math.sqrt(rho1o)
    body1 = BodySpec(BOX1, NeoHookeanIncompressible(C1), map1)
    prof1 = solve_radial_pressure(body1, tau * a1 / r0, anchor="inner")
    body1 = dataclasses.replace(body1, pressure=prof1)
    sig1_c = C1 * a1**2 / r1**2 - prof1(r1)
    # nominal traction continuity across the interface
    sig2_c = (sig1_c * r1 / a1) * a2 / r1
    body2 = BodySpec(BOX2, NeoHookeanIncompressible(C2), map2)
    prof2 = solve_radial_pressure(body2, sig2_c, anchor="inner")
    body2 = dataclasses.replace(body2, pressure=prof2)
    return SystemSpec(
        body1, body2, g=g, dirichlet=DirichletData(map1=map1, map2=map2)
    )


def linked_stretch_pair(C1, C2, a1, a2, tau, g=0.0, b2=0.0):
    """Triaxial pair with contact-linked constant pressures.

    p_i = C_i a_i^2 - tau makes both Cauchy contact tractions equal tau;
    offsets close the gap.
    """
    xc = BOX1.x_hi
    b1 = (a2 - a1) * xc + b2
    body1 = BodySpec(
        BOX1,
        NeoHookeanIncompressible(C1),
        TriaxialStretch(a1, b1),
        Constant(C1 * a1**2 - tau),
    )
    map2 = TriaxialStretch(a2, b2)
    body2 = BodySpec(
        BOX2, NeoHookeanIncompressible(C2), map2, Constant(C2 * a2**2 - tau)
    )
    return SystemSpec(body1, body2, g=g, dirichlet=DirichletData(map2=map2))


def linked_bend_pair(C1, C2, A, a1, a2, b1, tau, g=0.0):
    """Bending pair with contact-linked constant pressures.

    The contact radius is body 1's outer radius; body 2's offset closes
    the gap there. p_i = C_i a_i^2 / r_c^2 - tau.
    """
    rho_c = a1 + b1
    if b1 < R_MIN**2 or rho_c <= 0.0:
        raise InvalidParameters("bending offsets give nonpositive radius")
    b2 = rho_c - a2
    map1 = StretchBend(A, a1, b1)
    map2 = StretchBend(A, a2, b2)
    body1 = BodySpec(
        BOX1,
        NeoHookeanIncompressible(C1),
        map1,
        Constant(C1 * a1**2 / rho_c - tau),
    )
    body2 = BodySpec(
        BOX2,
        NeoHookeanIncompressible(C2),
        map2,
        Constant(C2 * a2**2 / rho_c - tau),
    )
    return SystemSpec(
        body1, body2, g=g, dirichlet=DirichletData(map1=map1, map2=map2)
    )
