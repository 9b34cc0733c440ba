"""Two-body contact geometry, tractions, and admissibility checks.

Body 1 occupies the left box and is loaded on its outer face X = x_lo by
a dead load of magnitude tau per unit reference area (tau < 0 pushes the
bodies together). Body 2 is held on its outer face X = x_hi by prescribed
placements. The shared plane X = x_c is the potential contact face.

Two traction bookkeepings coexist on purpose. evaluate_contact reports
Cauchy (per current area) contact tractions, which is what the load
interval formulas use. check_static enforces nominal (per reference
area) matching, which is the pairing under which the energy identities
in the energy module close. They agree for equal transverse stretches
and differ otherwise; neither is a bug.

The gradients of both body families are diagonal, so the checks take the
constraint residual, the tractions, the triaxial boundary tractions and
the axial placements in Python floats, each at the few stations its value
depends on, and the flank residual over one row per abscissa and flank;
tests/refimpl.py keeps their numpy forms over the full sample grids.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FamilyMismatch, InvalidParameters, NonPositiveJacobian
from .kinematics import (
    Box3,
    StretchBend,
    TriaxialStretch,
    _face_grid,
    _face_spans,
    _family,
    _points,
)
from .material import Constant, NeoHookeanIncompressible, RadialProfile
from .tensor3 import _cpow, _square

__all__ = [
    "BodySpec",
    "DirichletData",
    "SystemSpec",
    "ContactEvaluation",
    "AdmissibilityReport",
    "gap_value",
    "contact_traction",
    "nominal_traction",
    "evaluate_contact",
    "check_kinematic",
    "check_static",
    "rivlin_f",
    "solve_radial_pressure",
]

#: |gap| at or below this counts as closed contact
GAP_TOL = 1e-10

#: admissibility tolerances, keyed like AdmissibilityReport.residuals
TOLERANCES = {
    "dirichlet": 1e-9,
    "gap": 1e-12,
    "constraint": 1e-8,
    "equilibrium": 1e-8,
    "neumann": 1e-8,
    "contact_traction_sign": 1e-10,
    "action_reaction": 1e-8,
}

@dataclass(frozen=True)
class BodySpec:
    """One body: reference box, material, deformation, pressure field.

    The material is a NeoHookeanIncompressible and the map a
    TriaxialStretch or a StretchBend; BodySpec rejects any other.
    """

    domain: Box3
    material: object
    map: object
    pressure: object = Constant(0.0)

    def __post_init__(self):
        if not isinstance(self.map, (TriaxialStretch, StretchBend)):
            raise InvalidParameters("unknown deformation map %r" % (self.map,))
        if not isinstance(self.material, NeoHookeanIncompressible):
            raise InvalidParameters("unknown material model %r" % (self.material,))
        # the one place that asks which pressure field a body has
        if not isinstance(self.pressure, (Constant, RadialProfile)):
            raise InvalidParameters("unknown pressure field %r" % (self.pressure,))
        if isinstance(self.pressure, RadialProfile) and isinstance(self.map, TriaxialStretch):
            raise InvalidParameters("triaxial bodies take a Constant pressure field")

    def state(self, x):
        """(F, p) at the abscissa x, from one radius lookup: the bending
        frame or the triaxial gradient, and the pressure field at that radius.

        An array of abscissae gives stacks; a Constant pressure is repeated."""
        r = self.map.radius(x)
        F = self.map.gradient(x) if r is None else self.map.frame(r)
        p = self.pressure(r)
        return F, p if np.ndim(p) == np.ndim(x) else np.full(np.shape(x), p)

    @functools.cached_property
    def _memo(self):
        # values by key, filled through _kept: the Cauchy sigma_nn and radius
        # per float abscissa, the flank residual per data map. Per body object, as
        # _constraint_residual; dataclasses.replace starts an empty one
        return {}

    def _kept(self, key, compute):
        # compute(), once per key; a call that raises stores nothing
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @functools.cached_property
    def _constraint_residual(self):
        # max |det F - 1|: det F depends on x alone, so over the 5 abscissae
        # of a 5 x 5 x 5 sample grid. A function of map and box, computed once
        # per body object; dataclasses.replace gives a new one
        return _constraint(self.map, _abscissae(self, 5))


def _det_diag(d0, d1, d2):
    # tensor3.det of diag(d0, d1, d2), d0, d1, d2 >= 0, in Python floats: its
    # terms beside d0 d1 d2 multiply zeros, +0.0 unless d1 or d2 is not
    # finite, where 0 * inf is NaN
    return d0 * (d1 * d2) if math.isfinite(d1) and math.isfinite(d2) else math.nan


def _piola_diag(C, p, d0, d1, d2):
    # the diagonal of P = C F - p cof F at F = diag(d0, d1, d2) in Python
    # floats; the cofactors off the diagonal are exact zeros for finite
    # d0, d1, d2 and p, and so is P there
    return C * d0 - p * (d1 * d2), C * d1 - p * (d0 * d2), C * d2 - p * (d0 * d1)


def _constraint(m, xs):
    # max |det F - 1| at the abscissae xs (a float or an array), left to
    # right so that a NaN is never taken; every radius is looked up before
    # the map's A sqrt(a), as for a stack of gradients
    rs = [m.radius(x) for x in np.atleast_1d(xs).tolist()]
    return max(0.0, *[abs(_det_diag(*m._diagonal(r)) - 1.0) for r in rs])


def _abscissae(body, n):
    # where a sampled check reads a body (any object with map and domain): x_lo
    # as a float where the state does not vary with x, as under a map without a
    # radius (the triaxial one); else n abscissae across it, shared read-only
    lo = body.domain.x_lo
    return float(lo) if body.map.radius(lo) is None else _grid(lo, body.domain.x_hi, n)


@functools.lru_cache(maxsize=64)
def _grid(lo, hi, n):
    xs = np.linspace(lo, hi, n)
    xs.setflags(write=False)
    return xs


@dataclass(frozen=True)
class DirichletData:
    """Prescribed placement maps.

    map2 pins body 2 (its whole deformation for these families). For the
    bending family map1 additionally pins body 1's axial faces. None means
    "use the body's own map", i.e. the trial satisfies its data trivially.
    """

    map1: object = None
    map2: object = None


@dataclass(frozen=True)
class SystemSpec:
    """The coordinated pair plus contact parameters.

    d_allow is the allowed interpenetration depth (>= 0), g the cohesive
    traction cap (g = 0 is the pure compression case). Both bodies deform
    in one family (FamilyMismatch otherwise).
    """

    body1: BodySpec
    body2: BodySpec
    d_allow: float = 0.0
    g: float = 0.0
    dirichlet: DirichletData = field(default_factory=DirichletData)

    def __post_init__(self):
        if abs(self.body1.domain.x_hi - self.body2.domain.x_lo) > 1e-12:
            raise InvalidParameters("bodies must share the contact plane X = x_c")
        spans = zip(_face_spans(self.body1.domain, "x"), _face_spans(self.body2.domain, "x"))
        for ((lo1, hi1), (lo2, hi2)), ax in zip(spans, "yz"):
            if abs(lo1 - lo2) > 1e-12 or abs(hi1 - hi2) > 1e-12:
                raise InvalidParameters("bodies must share the %s-range" % ax)
        if not (math.isfinite(self.d_allow) and self.d_allow >= 0.0):
            raise InvalidParameters("d_allow must be >= 0")
        if not (math.isfinite(self.g) and self.g >= 0.0):
            raise InvalidParameters("cohesive cap g must be >= 0")
        m1, m2 = type(self.body1.map), type(self.body2.map)
        if m1 is not m2:
            msg = "bodies deform in different families: %s vs %s"
            raise FamilyMismatch(msg % (m1.__name__, m2.__name__))

    @property
    def x_c(self):
        return self.body1.domain.x_hi


@dataclass(frozen=True)
class ContactEvaluation:
    """Pointwise contact state at the shared plane (Cauchy tractions)."""

    gap: float
    traction_normal: float
    complementarity_residual: float
    action_reaction_residual: float
    regime: str  # "closed" or "open"


@dataclass(frozen=True)
class AdmissibilityReport:
    """Residuals of one side of the admissibility conditions.

    kinematic_ok / static_ok is None when that side was not checked.
    """

    kinematic_ok: object
    static_ok: object
    residuals: dict


def gap_value(system):
    """Normal gap at the contact plane: body 1 face minus body 2 face.

    Negative means separated (body 1 face short of the plane reached by
    body 2), positive means interpenetration.
    """
    Xc = system.body1.domain.center()
    Xc[0] = system.x_c
    return float(system.body1.map.normal_position(Xc) - system.body2.map.normal_position(Xc))


def _sigma_nn(body, x):
    # (Cauchy sigma_nn, radius) on the face X = x in Python floats, with the
    # checks of state and cauchy_stress in their order. F is diagonal, so
    # (P F^T)_00 adds to P_00 F_00 products with a zero: exact +0.0, which
    # turn a -0.0 into +0.0, or NaN where the pressure is not finite
    m = body.map
    r = m.radius(x)
    d0, d1, d2 = m._diagonal(r)
    p = body.pressure(r)
    J = _det_diag(d0, d1, d2)
    if J <= 0.0:
        raise NonPositiveJacobian("det F = %.6g" % J)
    if not math.isfinite(p):
        return math.nan, r
    return (_piola_diag(body.material.C, p, d0, d1, d2)[0] * d0 + 0.0) / J, r


def _traction(body, x):
    # _sigma_nn, kept per body and float abscissa; a call that raises keeps nothing
    if type(x) is not float:
        return _sigma_nn(body, x)
    return body._kept(("sigma", x), lambda: _sigma_nn(body, x))


def contact_traction(body, x_face):
    """Cauchy normal traction sigma_nn on the face X = x_face."""
    return _traction(body, x_face)[0]


def nominal_traction(body, x_face):
    """First Piola normal traction (P N) . N on the face X = x_face.

    This is force per unit reference area; it is the quantity matched
    across the interface by the energy identities.
    """
    t, r = _traction(body, x_face)
    return t / body.map.a if r is None else t * r / body.map.a


def evaluate_contact(system):
    """Gap, tractions, and complementarity at the contact plane."""
    gap = gap_value(system) - system.d_allow
    xc = system.x_c
    b1, b2 = system.body1, system.body2
    t1, t2 = contact_traction(b1, xc), contact_traction(b2, xc)
    regime = "closed" if abs(gap) <= GAP_TOL else "open"
    comp = abs(gap) * abs(t1 - system.g)
    return ContactEvaluation(
        gap=gap,
        traction_normal=t1,
        complementarity_residual=comp,
        action_reaction_residual=abs(t1 - t2),
        regime=regime,
    )


@functools.lru_cache(maxsize=64)
def _face_points(domain, axis, values):
    # 5 x 5 sample grid on each face {axis = v}, v in the tuple values, one
    # point per row; built once per box and shared, so read-only
    us, vs = (np.linspace(lo, hi, 5) for lo, hi in _face_spans(domain, axis))
    pts = np.concatenate([_face_grid(axis, v, us, vs).reshape(-1, 3) for v in values])
    pts.setflags(write=False)
    return pts


def _running_max(worst, values):
    # max(worst, v0, v1, ...) left to right: a NaN value is never taken
    return max(worst, *np.ravel(values).tolist())


@functools.lru_cache(maxsize=64)
def _flank_points(domain):
    # the rows of the y faces' 5 x 5 grids whose n . chi differ: n's axial
    # entry +0.0 times z / A sqrt(a) adds an exact zero, or NaN where that
    # overflows, first at the largest |z|. So each abscissa on each flank,
    # at the grid's z of least |z|; read-only
    grid = _face_points(domain, "y", (domain.y_lo, domain.y_hi)).reshape(2, 5, 5, 3)
    pts = grid[:, :, np.argmin(np.abs(grid[0, 0, :, 2]))].reshape(-1, 3)
    pts.setflags(write=False)
    return pts


def _flank(body, dmap):
    # max |n . chi| over the y faces by a stacked matmul (np.dot's float point
    # by point), n the flank normal of the data map, of which it reads A and a
    X = _flank_points(body.domain)
    th = dmap.A * X[:, 1] / math.sqrt(dmap.a)
    n = _points(-np.sin(th), np.cos(th), 0.0)
    return _running_max(0.0, np.abs(n[:, None, :] @ body.map.place(X)[..., None]))


def check_kinematic(system, dirichlet=None):
    """Kinematic admissibility: prescribed placements, gap, constraint.

    The held face of body 2 prescribes the full placement. For the
    bending family the axial faces additionally prescribe the axial
    coordinate (plane sections stay plane) and the side flanks must stay
    inside the data's meridian planes; the in-plane components on those
    faces are free, matching the traction components that vanish there.
    A bending body's data map must bend too (FamilyMismatch otherwise).
    dirichlet overrides the data stored on the system; None maps are
    satisfied trivially, and so is a data map that is the body's own map:
    each difference would be 0.0 or NaN, and the running maximum takes
    neither.
    """
    data = dirichlet if dirichlet is not None else system.dirichlet
    worst_d = 0.0
    if data.map2 is not None and data.map2 is not system.body2.map:
        X = _face_points(system.body2.domain, "x", (system.body2.domain.x_hi,))
        d = system.body2.map.place(X) - _family(data.map2).place(X)
        worst_d = _running_max(worst_d, np.max(np.abs(d), axis=-1))
    if isinstance(system.body1.map, StretchBend):
        for body, dmap in ((system.body1, data.map1), (system.body2, data.map2)):
            if dmap is None:
                continue
            if not isinstance(_family(dmap), StretchBend):
                msg = "body and data map deform in different families: StretchBend vs %s"
                raise FamilyMismatch(msg % type(dmap).__name__)
            if dmap is not body.map:
                worst_d = max(worst_d, _axial_difference(body, dmap))
            flank = body._kept(("flank", dmap.A, dmap.a), lambda: _flank(body, dmap))
            worst_d = max(worst_d, flank)
    gap_res = max(0.0, gap_value(system) - system.d_allow)
    con_res = max(system.body1._constraint_residual, system.body2._constraint_residual)
    residuals = {
        "dirichlet": worst_d,
        "gap": gap_res,
        "constraint": con_res,
    }
    ok = all(residuals[k] <= TOLERANCES[k] for k in residuals)
    return AdmissibilityReport(kinematic_ok=ok, static_ok=None, residuals=residuals)


def _axial_difference(body, dmap):
    # max |z / k - z / k_data| over the z faces' 5 x 5 grids, k = A sqrt(a)
    # of each map: the axial coordinates of frame_place, a function of z
    # alone, so at z_lo and z_hi in Python floats. Each map checks its radii
    # and then its k, as frame_place does; rho grows with x, so if any grid
    # abscissa's radius is below R_MIN, x_lo's is, and it comes first
    ks = []
    for m in (body.map, dmap):
        m.rho(float(body.domain.x_lo))
        ks.append(m._axial())
    return max(0.0, *[abs(z / ks[0] - z / ks[1]) for z in (body.domain.z_lo, body.domain.z_hi)])


def _equilibrium_residual(body):
    m = body.map
    r_in = m.radius(body.domain.x_lo)
    if r_in is None:
        # constant state: divergence vanishes identically
        return 0.0
    C = body.material.C
    a, A = m.a, m.A
    rs = _grid(r_in, m.radius(body.domain.x_hi), 101)
    # radial momentum balance: d(sigma_rr)/dr = (sigma_tt - sigma_rr)/r
    r3 = _cpow(rs, 3)
    A2 = _square(A, "equilibrium residual: A = %r overflows in A^2")
    a2 = _square(a, "equilibrium residual: stretch a = %r overflows in a^2")
    rhs = C * (A2 * rs / a - a2 / r3)
    dsig = -2.0 * C * a2 / r3 - body.pressure._derivative(rs, r3)
    return _running_max(0.0, np.abs(dsig - rhs))


def _neumann_residual(system, tau):
    b1, b2 = system.body1, system.body2
    if isinstance(b1.map, StretchBend):
        # dead load acts on the inner face, per unit reference area
        return abs(nominal_traction(b1, b1.domain.x_lo) - tau)
    worst = 0.0
    for body, loaded in ((b1, True), (b2, False)):
        # F = diag(a, s, s) with det F = a s^2 > 0 for every positive a, so
        # no check raises; P_22 = P_11
        P00, P11, _ = _piola_diag(body.material.C, body.pressure(None), *body.map._diagonal())
        # the transverse faces are traction free, the loaded face carries
        # tau; body 2's outer face is placement-controlled
        side = abs(P11)
        resid = [abs(P00 - tau), side] if loaded else [side]
        if not any(map(math.isnan, resid)):  # else the stress's maximum is NaN, never taken
            worst = max(worst, *resid)
    return worst


def check_static(system, tau):
    """Static admissibility under the dead load tau.

    Equilibrium, boundary tractions, contact traction sign, and nominal
    action-reaction at the interface. Residuals are per reference area.
    """
    b1, b2 = system.body1, system.body2
    xc = system.x_c
    eq = max(_equilibrium_residual(b1), _equilibrium_residual(b2))
    neu = _neumann_residual(system, tau)
    T1 = nominal_traction(b1, xc)
    T2 = nominal_traction(b2, xc)
    sign = max(0.0, T1 - system.g, T2 - system.g)
    con = max(b1._constraint_residual, b2._constraint_residual)
    residuals = {
        "equilibrium": eq,
        "neumann": neu,
        "contact_traction_sign": sign,
        "action_reaction": abs(T1 - T2),
        "constraint": con,
    }
    ok = all(residuals[k] <= TOLERANCES[k] for k in residuals)
    return AdmissibilityReport(kinematic_ok=None, static_ok=ok, residuals=residuals)


def rivlin_f(C, A, a, s):
    """Rivlin's f(s) = C (A^2 s / (2 a) + a^2 / (2 s)) at squared radius s.

    sigma_rr(r) - f(r^2) is constant across a bent block in radial
    equilibrium (see solve_radial_pressure).
    """
    A2 = _square(A, "rivlin_f: A = %r overflows in A^2")
    a2 = _square(a, "rivlin_f: stretch a = %r overflows in a^2")
    return C * (A2 * s / (2.0 * a) + a2 / (2.0 * s))


def solve_radial_pressure(body, boundary_traction):
    """Exact radial equilibrium pressure across a bending body.

    boundary_traction is the Cauchy radial stress sigma_rr on the inner
    face X = x_lo. The radial balance
    d(sigma_rr)/dr = C (A^2 r / a - a^2 / r^3) has a pressure-free
    right-hand side, so it integrates in closed form (Rivlin's flexure):

        sigma_rr(r) = sigma_inner + f(r^2) - f(rho),

    with f = rivlin_f and rho the squared radius of the inner face.
    Since sigma_rr = C a^2 / r^2 - p, the pressure is a RadialProfile.
    """
    m = body.map
    if not isinstance(m, StretchBend):
        raise InvalidParameters("radial equilibrium applies to the bending family")
    C = body.material.C
    a, A = m.a, m.A
    rho = m.rho(body.domain.x_lo)
    A2 = _square(A, "radial pressure coefficient A^2 overflows for A = %r")
    a2 = _square(a, "radial pressure coefficient a^2 overflows for stretch a = %r")
    return RadialProfile(
        c_inv=0.5 * C * a2,
        c_sq=-0.5 * C * A2 / a,
        c0=-boundary_traction + rivlin_f(C, A, a, rho),
    )
