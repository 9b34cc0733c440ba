"""Potential and complementary energies and the duality gap.

The potential energy of a trial deformation is the stored energy minus
the work of the dead load on the outer face of body 1. The complementary
energy of a trial stress state pairs the boundary tractions with the
prescribed placements on the held faces and subtracts the complementary
density. For a statically admissible stress field and a kinematically
admissible deformation the complementary value never exceeds the
potential value, with equality exactly at the solution pair; enclosure()
evaluates both sides.

Surface pairings follow the face roles of the two families. Triaxial:
the load face carries tau, the transverse faces are traction free, the
held face of body 2 pairs full placements. Bending: the held face pairs
the radial traction with the data radius, the axial faces pair the axial
traction with the data's axial placement, and the meridian flanks pair
to zero identically (the azimuthal traction is orthogonal to any
placement lying in the flank plane).
"""

from dataclasses import dataclass

import numpy as np

from .errors import InadmissibleTrial, NonFiniteIntegrand
from .kinematics import (
    DEFAULT_ORDER,  # noqa: F401 (the default rule's order, read as energy.DEFAULT_ORDER)
    QuadratureRule,
    StretchBend,
    _face_grid,
    _face_spans,
    _family,
    _node_sum,
)
from .material import complementary_density, piola_stress, strain_energy
from .contact import DirichletData, check_kinematic, check_static
from .tensor3 import ddot

__all__ = [
    "QuadratureRule",
    "EnergyEnclosure",
    "integrate_volume",
    "integrate_face",
    "potential_energy",
    "complementary_energy",
    "divergence_identity_residual",
    "enclosure",
]


def _check_finite(v):
    # v, or an error naming its first non-finite value in node order
    bad = ~np.isfinite(v)
    if bad.any():
        raise NonFiniteIntegrand("integrand returned %r" % (float(np.asarray(v)[bad][0]),))
    return v


def _axes(domain, rule):
    # (nodes, weights) along x, y and z
    return [rule.mapped(getattr(domain, c + "_lo"), getattr(domain, c + "_hi")) for c in "xyz"]


def integrate_volume(fn, domain, rule=None):
    """Integral of fn(X) over the box by tensor-product quadrature."""
    (xs, wx), (ys, wy), (zs, wz) = _axes(domain, rule or QuadratureRule())
    f = [[[_check_finite(float(fn(np.array([x, y, z])))) for z in zs] for y in ys] for x in xs]
    return _node_sum(np.array(f), wx, wy, wz)


def _x_integral(fn, domain, rule):
    """integrate_volume of fn(xs), an integrand of the abscissa alone
    evaluated on the array of x nodes: the same float sum."""
    (xs, wx), (_, wy), (_, wz) = _axes(domain, rule)
    return _node_sum(np.reshape(_check_finite(fn(xs)), (-1, 1, 1)), wx, wy, wz)


def integrate_face(fn, domain, axis, value, rule=None):
    """Integral of fn(X) over the face {axis = value} of the box."""
    def at_each_node(X):
        return np.array([[_check_finite(float(fn(P))) for P in row] for row in X])

    return _face_integral(at_each_node, domain, axis, value, rule or QuadratureRule())


def _face_integral(fn, domain, axis, value, rule):
    """integrate_face of fn evaluated on the whole (nu, nv, 3) node grid
    at once: the same float sum."""
    (u_lo, u_hi), (v_lo, v_hi) = _face_spans(domain, axis)
    us, wu = rule.mapped(u_lo, u_hi)
    vs, wv = rule.mapped(v_lo, v_hi)
    return _node_sum(_check_finite(fn(_face_grid(axis, value, us, vs))), wu, wv)


@dataclass(frozen=True)
class EnergyEnclosure:
    e_complementary: float
    e_potential: float
    gap: float


def _resolved_data(system):
    d = system.dirichlet
    return DirichletData(
        map1=_family(d.map1) if d.map1 is not None else system.body1.map,
        map2=_family(d.map2) if d.map2 is not None else system.body2.map,
    )


def _body_piola(body, xs):
    F, p = body.state(xs)
    return piola_stress(body.material, F, p), F


def _face_pairing(body, dmap, axis, side, rule):
    """Integral of (P N) . chi over the face {axis = side} of body.

    N is the outward normal and chi is dmap's image point in the frame
    of body's gradient, so one expression pairs Cartesian and bending
    faces; on a bending meridian flank it is an exact zero.
    """
    col = "xyz".index(axis)
    sign = 1.0 if side == "hi" else -1.0

    def pairing(X):
        # the stress depends on x alone, which is constant along each row
        # of the grid; the stacked matmul is np.dot's float, row by row
        c = _body_piola(body, X[:, 0, 0])[0][:, :, col]
        return sign * (c[:, None, None, :] @ dmap.frame_place(X)[..., None])[..., 0, 0]

    face = getattr(body.domain, "%s_%s" % (axis, side))
    return _face_integral(pairing, body.domain, axis, face, rule)


def potential_energy(system, tau, rule=None):
    """Stored energy minus dead-load work, tau per unit reference area."""
    rule = rule or QuadratureRule()
    total = 0.0
    for body in (system.body1, system.body2):
        total += _x_integral(
            lambda xs, b=body: strain_energy(b.material, b.map.gradient(xs)),
            body.domain,
            rule,
        )
    # the dead load pairs with the image coordinate along the load:
    # x for the affine families, the face radius for bending
    b1 = system.body1
    load = _face_integral(b1.map.normal_position, b1.domain, "x", b1.domain.x_lo, rule)
    return total + tau * load


def complementary_energy(system, rule=None):
    """Boundary-paired complementary energy of the system's stress state."""
    rule = rule or QuadratureRule()
    data = _resolved_data(system)
    total = 0.0
    for body in (system.body1, system.body2):
        total -= _x_integral(
            lambda xs, b=body: complementary_density(b.material, *b.state(xs)),
            body.domain,
            rule,
        )
    b2 = system.body2
    total += _face_pairing(b2, data.map2, "x", "hi", rule)
    if isinstance(b2.map, StretchBend):
        # the axial faces hold the axial placement too; the meridian
        # flanks pair to zero (azimuthal traction _|_ flank plane)
        for body, dmap in ((system.body1, data.map1), (b2, data.map2)):
            for side in ("lo", "hi"):
                total += _face_pairing(body, dmap, "z", side, rule)
    return total


def divergence_identity_residual(system, rule=None):
    """|sum of face pairings - volume integral of P : F| for the system.

    Equals |integral of (Div P) . x| by the divergence theorem, so it
    vanishes (to quadrature accuracy) exactly when the stress state is in
    equilibrium, and is order one for states that are not.
    """
    rule = rule or QuadratureRule()
    lhs = 0.0
    rhs = 0.0
    for body in (system.body1, system.body2):
        rhs += _x_integral(lambda xs, b=body: ddot(*_body_piola(b, xs)), body.domain, rule)
        for axis in "xyz":
            for side in ("lo", "hi"):
                lhs += _face_pairing(body, body.map, axis, side, rule)
    return abs(lhs - rhs)


def _admit(report, side):
    # raise InadmissibleTrial naming the largest residual if the side failed
    if not getattr(report, side + "_ok"):
        worst = max(report.residuals, key=report.residuals.get)
        raise InadmissibleTrial(
            "%s trial: %s residual = %.3e" % (side, worst, report.residuals[worst])
        )


def enclosure(system_kinematic, system_static, tau, rule=None):
    """Two-sided energy bracket from an admissible trial pair.

    The kinematic trial is checked against the static system's Dirichlet
    data; the static trial must equilibrate the load tau. Cohesive
    problems admit the bracket on closed-contact trials. Raises
    InadmissibleTrial naming the failing residual.
    """
    rule = rule or QuadratureRule()
    data = _resolved_data(system_static)
    _admit(check_kinematic(system_kinematic, dirichlet=data), "kinematic")
    _admit(check_static(system_static, tau), "static")
    e_p = potential_energy(system_kinematic, tau, rule)
    e_c = complementary_energy(system_static, rule)
    return EnergyEnclosure(e_complementary=e_c, e_potential=e_p, gap=e_p - e_c)
