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

The gradient-stack forms of the readers that take a body's diagonal
instead: criteria_forms and edge_minima of bounds._forms and
bounds._edge_minima, gap_value of contact.gap_value, injectivity_check of
kinematics.injectivity_check, isochory of cli._isochory, and
potential_energy and complementary_energy of the energy functions (the
Gauss sum of the stored energy, the exact held face and axial data
stretch).

The load search's numpy form over the linkage (C, s, lam) per body:
feasible_closed of bounds._feasible_closed over the window table, scan
of the 129-point grid whose first and last feasible loads bounds._seeds
finds, bisect of bounds._bisect, and numeric_load_bounds built on them.
"""

import math

import numpy as np

from contactbounds.bounds import (
    BISECTION_TOL,
    COARSE_N,
    LoadInterval,
    _bracket,
    _linkage,
    _running_min,
    _stations,
)
from contactbounds.contact import _abscissae, _face_points, _running_max, nominal_traction
from contactbounds.energy import (
    QuadratureRule,
    _check_finite,
    _face_integral,
    _resolved_data,
    _x_integral,
)
from contactbounds.errors import InfeasibleProblem
from contactbounds.kinematics import StretchBend, TriaxialStretch, image_volume, jacobian
from contactbounds.material import (
    Constant,
    _check_det,
    _check_model,
    _piola,
    piola_stress,
    strain_energy,
)
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
    """max |det F - 1| over the 5 abscissae of a sample grid, as one stack;
    NaN where any det F is NaN."""
    res = np.abs(det(body.map.gradient(_abscissae(body, 5))) - 1.0)
    return math.nan if np.isnan(res).any() else _running_max(0.0, res)


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


def criteria_forms(C, probes, F, p):
    """C G : G - 2 p cof(G) : F, stations (rows of the stack F, p) by probes,
    from the probes' (|G|^2, diagonal cofactor rows)."""
    gg, cd = probes
    d = F.diagonal(axis1=-2, axis2=-1)
    dots = (cd[0] * d[:, 0, None] + cd[1] * d[:, 1, None]) + cd[2] * d[:, 2, None]
    return C * gg - p[:, None] * 2.0 * dots


def edge_minima(body, probes, pressures):
    """The complementary minimum under each constant pressure in turn, from
    the gradient stack of the complementary criteria stations."""
    dom = body.domain
    xs, _, k = _stations(dom.x_lo, dom.x_hi, isinstance(body.map, TriaxialStretch))
    gg, cd = probes
    d = body.map.gradient(xs[:k]).diagonal(axis1=-2, axis2=-1)
    s = (cd[0] * d[:, 0, None] + cd[1] * d[:, 1, None]) + cd[2] * d[:, 2, None]
    return [_running_min(math.inf, body.material.C * gg - (Constant(p).p * 2.0) * s)
            for p in pressures]


def gap_value(system):
    """Normal gap from each map's normal_position at the face centre."""
    Xc = system.body1.domain.center()
    Xc[0] = system.x_c
    return float(system.body1.map.normal_position(Xc) - system.body2.map.normal_position(Xc))


def injectivity_check(map_, domain):
    """The volume test from jacobian at the box centre."""
    total = jacobian(map_, domain.center()) * domain.volume()
    vol = image_volume(map_, domain)
    return total <= vol + 1e-9 * max(1.0, abs(vol))


def isochory(bodies):
    """max |J - 1| at 7 abscissae of each body from one det stack per body,
    NaN where any J is NaN; jacobian raises at the first abscissa whose J is
    not positive."""
    worst = 0.0
    for body in bodies:
        xs = _abscissae(body, 7)
        J = np.ravel(det(body.map.gradient(xs)))
        if (J <= 0.0).any():
            jacobian(body.map, (np.ravel(xs)[np.argmax(J <= 0.0)], 0.5, 0.5))
        res = np.abs(J - 1.0)
        worst = math.nan if np.isnan(res).any() else _running_max(worst, res)
    return worst


def _x_face_exact(fn, domain, x):
    # the area of the face {X = x} times fn at its centroid
    X = domain.center()
    X[0] = x
    return (domain.y_hi - domain.y_lo) * (domain.z_hi - domain.z_lo) * fn(X)


def potential_energy(system, tau, rule=None):
    """energy.potential_energy from the gradient stacks and face centroids."""
    total = 0.0
    if rule is None:
        for body in (system.body1, system.body2):
            C, (k_inv, k_sq, k0) = body.material.C, body.map.i1_terms()
            w = 0.5 * C * k_inv, 0.5 * C * k_sq, 0.5 * C * (k0 - 3.0)
            total += body.map.volume_integral(body.domain, *w)
        b1 = system.body1
        load = _x_face_exact(b1.map.normal_position, b1.domain, b1.domain.x_lo)
        return _check_finite(total + tau * load)
    for body in (system.body1, system.body2):
        F = body.map.gradient(rule.mapped(body.domain.x_lo, body.domain.x_hi)[0])
        total += _x_integral(strain_energy(body.material, F), body.domain, rule)
    b1 = system.body1
    load = _face_integral(b1.map.normal_position, b1.domain, "x", b1.domain.x_lo, rule)
    return total + tau * load


def complementary_energy(system):
    """The exact energy.complementary_energy from body 2's full stress at its
    held face and the data maps' gradients."""
    data = _resolved_data(system)
    total = 0.0
    b2 = system.body2
    for body in (system.body1, b2):
        C, (k_inv, k_sq, k0), p = body.material.C, body.map.i1_terms(), body.pressure
        wc = (0.5 * C * k_inv - 3.0 * p.c_inv, 0.5 * C * k_sq - 3.0 * p.c_sq,
              0.5 * C * k0 + 1.5 * C - 3.0 * p.c0)
        total -= body.map.volume_integral(body.domain, *wc)
    P = piola_stress(b2.material, *b2.state(b2.domain.x_hi))
    total += _x_face_exact(lambda X: P[:, 0] @ data.map2.frame_place(X), b2.domain, b2.domain.x_hi)
    if isinstance(b2.map, StretchBend):
        for body, dmap in zip((system.body1, b2), (data.map1, data.map2)):
            axial = body.map.axial_piola(body.material.C, body.pressure)
            F_zz = dmap.gradient(body.domain.x_hi)[2, 2]
            total += body.map.volume_integral(body.domain, *axial) * F_zz
    return _check_finite(total)


def feasible_closed(tau, linkage, cap):
    """The window |C s - tau| < C / lam of every body and tau <= cap, which
    rejects a NaN load, for one load or an array of them."""
    ok = tau <= cap
    for C, s, lam in linkage:
        ok = ok & (abs(C * s - tau) < C / lam)
    return ok


def scan(linkage, cap, n):
    """The bracket and the feasible loads of an n-point grid over it."""
    b_lo, b_hi = _bracket(linkage, cap)
    taus = np.linspace(b_lo, b_hi, n)
    return b_lo, b_hi, taus[feasible_closed(taus, linkage, cap)]


def bisect(inside, outside, linkage, cap):
    """Halve between a feasible and an infeasible load until the two are
    BISECTION_TOL apart or no float lies between them; the feasible end."""
    while abs(outside - inside) > BISECTION_TOL:
        mid = 0.5 * (inside + outside)
        if mid == inside or mid == outside:
            break
        if feasible_closed(mid, linkage, cap):
            inside = mid
        else:
            outside = mid
    return inside


def numeric_load_bounds(example, fixed_params):
    """The bisection seeded from the scan's first and last feasible loads,
    or from the middle of the windows' intersection when it has none."""
    linkage, cap = _linkage(example, fixed_params)
    if not fixed_params.get("contact_closed", True):
        return LoadInterval(cap, cap, "open", False)
    b_lo, b_hi, feas = scan(linkage, cap, COARSE_N)
    if not len(feas):
        lo_w = max(C * s - C / lam for C, s, lam in linkage)
        feas = [0.5 * (lo_w + min(cap, *(C * s + C / lam for C, s, lam in linkage)))]
        if not feasible_closed(feas[0], linkage, cap):
            raise InfeasibleProblem("no feasible load in [%g, %g]" % (b_lo, b_hi))
    if not (math.isfinite(b_lo) and math.isfinite(b_hi)):
        raise OverflowError("load bracket [%g, %g] overflows" % (b_lo, b_hi))
    lo = bisect(float(feas[0]), b_lo, linkage, cap)
    return LoadInterval(lo, bisect(float(feas[-1]), b_hi, linkage, cap), "closed", False)
