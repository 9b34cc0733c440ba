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

Both energies are exact by default: each density is c_inv / rho + c_sq
rho + c0 in the squared bend radius rho, which the family integrates, and
each face integrand is affine in the face coordinates. Given a
QuadratureRule, they take its Gauss sum, the reference verify compares.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InadmissibleTrial, InvalidParameters, NonFiniteIntegrand
from .kinematics import StretchBend, _face_grid, _face_spans, _family
from .material import piola_stress, strain_energy
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


#: Gauss-Legendre points per axis of the default QuadratureRule
DEFAULT_ORDER = 8


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


@functools.lru_cache(maxsize=64)
def _weights(order, spans):
    # the tensor-product weights (w0[i] * w1[j]) * ... of an order-n rule
    # mapped onto each (lo, hi) of spans; built once per (order, spans) and
    # shared, so read-only
    rule = QuadratureRule(order)
    W = functools.reduce(np.multiply.outer, [rule.mapped(lo, hi)[1] for lo, hi in spans])
    W.setflags(write=False)
    return W


def _node_sum(f, W):
    """Tensor-product quadrature sum of the node values f, weights W.

    Each term is W[i, j, ...] * f[i, j, ...], added in node order from 0.0
    (cumsum is sequential): the float a node loop gives.
    """
    return np.cumsum(np.concatenate(([0.0], (W * f).ravel())))[-1]


def _check_finite(v):
    # v, or an error naming its first non-finite value in node order
    bad = ~np.isfinite(v)
    if bad.any():
        raise NonFiniteIntegrand("integrand returned %r" % (float(np.asarray(v)[bad][0]),))
    return v


def _spans(domain):
    # (lo, hi) along x, y and z
    return tuple((getattr(domain, c + "_lo"), getattr(domain, c + "_hi")) for c in "xyz")


def integrate_volume(fn, domain, rule=None):
    """Integral of fn(X) over the box by tensor-product quadrature."""
    rule, spans = rule or QuadratureRule(), _spans(domain)
    xs, ys, zs = (rule.mapped(lo, hi)[0] for lo, hi in spans)
    f = [[[_check_finite(float(fn(np.array([x, y, z])))) for z in zs] for y in ys] for x in xs]
    return _node_sum(np.array(f), _weights(rule.order, spans))


def _x_integral(f, domain, rule):
    """integrate_volume of an integrand of the abscissa alone, given by
    its values f at the x nodes of rule: the same float sum."""
    W = _weights(rule.order, _spans(domain))
    return _node_sum(np.reshape(_check_finite(f), (-1, 1, 1)), W)


def integrate_face(fn, domain, axis, value, rule=None):
    """Integral of fn(X) over the face {axis = value} of the box."""
    def at_each_node(X):
        return np.array([[_check_finite(float(fn(P))) for P in row] for row in X])

    return _face_integral(at_each_node, domain, axis, value, rule or QuadratureRule())


def _face_integral(fn, domain, axis, value, rule):
    """integrate_face of fn evaluated on the whole (nu, nv, 3) node grid
    at once: the same float sum."""
    spans = tuple(_face_spans(domain, axis))
    us, vs = (rule.mapped(lo, hi)[0] for lo, hi in spans)
    f = _check_finite(fn(_face_grid(axis, value, us, vs)))
    return _node_sum(f, _weights(rule.order, spans))


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


def _face_pairing(body, dmap, axis, side, rule, P):
    """Integral of (P N) . chi over the face {axis = side} of body.

    N is the outward normal and chi is dmap's image point in the frame
    of body's gradient, so one expression pairs Cartesian and bending
    faces; on a bending meridian flank it is an exact zero. P is body's
    stress at the x nodes of rule, the rows of a y or z face grid; an x
    face lies at one x and evaluates its own.
    """
    col = "xyz".index(axis)
    sign = 1.0 if side == "hi" else -1.0

    def pairing(X):
        # the stress depends on x alone, which is constant along each row
        # of the grid; the stacked matmul is np.dot's float, row by row
        c = (_body_piola(body, X[:, 0, 0])[0] if axis == "x" else P)[:, :, col]
        return sign * (c[:, None, None, :] @ dmap.frame_place(X)[..., None])[..., 0, 0]

    face = getattr(body.domain, "%s_%s" % (axis, side))
    return _face_integral(pairing, body.domain, axis, face, rule)


def _x_face_exact(fn, domain, x):
    # the integral of fn, affine in y and z, over the face {X = x}: its
    # area times fn at the centroid
    X = domain.center()
    X[0] = x
    return (domain.y_hi - domain.y_lo) * (domain.z_hi - domain.z_lo) * fn(X)


def potential_energy(system, tau, rule=None):
    """Stored energy minus dead-load work, tau per unit reference area;
    exact, or the Gauss sum of a QuadratureRule."""
    total = 0.0
    if rule is None:
        for body in (system.body1, system.body2):
            C, (k_inv, k_sq, k0) = body.material.C, body.map.i1_terms()
            # W = C/2 (I1 - 3)
            w = 0.5 * C * k_inv, 0.5 * C * k_sq, 0.5 * C * (k0 - 3.0)
            total += body.map.volume_integral(body.domain, *w)
        b1 = system.body1
        load = _x_face_exact(b1.map.normal_position, b1.domain, b1.domain.x_lo)
        return _check_finite(total + tau * load)
    for body in (system.body1, system.body2):
        F = body.map.gradient(rule.mapped(body.domain.x_lo, body.domain.x_hi)[0])
        total += _x_integral(strain_energy(body.material, F), body.domain, rule)
    # the dead load pairs with the image coordinate along the load:
    # x for the triaxial family, the face radius for bending
    b1 = system.body1
    load = _face_integral(b1.map.normal_position, b1.domain, "x", b1.domain.x_lo, rule)
    return total + tau * load


def complementary_energy(system, rule=None):
    """Boundary-paired complementary energy of the system's stress state;
    exact, or the Gauss sum of a QuadratureRule."""
    data = _resolved_data(system)
    total = 0.0
    b2 = system.body2
    if rule is None:
        for body in (system.body1, b2):
            C, (k_inv, k_sq, k0), p = body.material.C, body.map.i1_terms(), body.pressure
            # P : F - W = C/2 I1 + 3 C/2 - 3 p, as cof F : F = 3 det F = 3
            wc = (0.5 * C * k_inv - 3.0 * p.c_inv, 0.5 * C * k_sq - 3.0 * p.c_sq,
                  0.5 * C * k0 + 1.5 * C - 3.0 * p.c0)
            total -= body.map.volume_integral(body.domain, *wc)
        P = _body_piola(b2, b2.domain.x_hi)[0]
        total += _x_face_exact(
            lambda X: P[:, 0] @ data.map2.frame_place(X), b2.domain, b2.domain.x_hi
        )
        if isinstance(b2.map, StretchBend):
            # the axial faces pair P_zz with the data's z = F_zz Z: together the
            # volume integral of P_zz times the data's F_zz
            for body, dmap in zip((system.body1, b2), (data.map1, data.map2)):
                axial = body.map.axial_piola(body.material.C, body.pressure)
                F_zz = dmap.gradient(body.domain.x_hi)[2, 2]  # the same at every x
                total += body.map.volume_integral(body.domain, *axial) * F_zz
        return _check_finite(total)
    stress = []
    for body in (system.body1, system.body2):
        # one stress stack per body for its density and its z faces; the
        # density is P : F - W, the floats of complementary_density
        P, F = _body_piola(body, rule.mapped(body.domain.x_lo, body.domain.x_hi)[0])
        total -= _x_integral(ddot(P, F) - strain_energy(body.material, F), body.domain, rule)
        stress.append(P)
    total += _face_pairing(b2, data.map2, "x", "hi", rule, stress[1])
    if isinstance(b2.map, StretchBend):
        # the axial faces hold the axial placement too; the meridian
        # flanks pair to zero (azimuthal traction _|_ flank plane)
        for body, dmap, P in zip((system.body1, b2), (data.map1, data.map2), stress):
            for side in ("lo", "hi"):
                total += _face_pairing(body, dmap, "z", side, rule, P)
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
        P, F = _body_piola(body, rule.mapped(body.domain.x_lo, body.domain.x_hi)[0])
        rhs += _x_integral(ddot(P, F), body.domain, rule)
        for axis in "xyz":
            for side in ("lo", "hi"):
                lhs += _face_pairing(body, body.map, axis, side, rule, P)
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
    kin = check_kinematic(system_kinematic, dirichlet=_resolved_data(system_static))
    stat = check_static(system_static, tau) if kin.kinematic_ok else None
    return _enclose(system_kinematic, system_static, tau, kin, stat, rule=rule)


def _enclose(system_kinematic, system_static, tau, kin, stat, e_c=None, rule=None):
    # the bracket from the trials' admissibility reports, kinematic first;
    # e_c, when given, is system_static's complementary energy
    _admit(kin, "kinematic")
    _admit(stat, "static")
    e_p = potential_energy(system_kinematic, tau, rule)
    if e_c is None:
        e_c = complementary_energy(system_static, rule)
    return EnergyEnclosure(e_complementary=e_c, e_potential=e_p, gap=e_p - e_c)
