"""Sustainable load intervals and the stability criteria behind them.

A load tau is accepted when some pressure pair, read off the contact
traction linkage p_i = C_i lambda_n^2 - tau, keeps both bodies inside
their stability window while the contact conditions hold. The window of
a body is |p| < C / lambda_max: the constrained second variation along
a shear probe in the (i, j) plane has eigenvalues C +/- p * lambda_k,
so positivity fails first on the pair whose complementary stretch is
largest.

Closed-form intervals implement the per-family formulas: the triaxial
window is C sqrt(a) (transverse pairs) for a <= 1 and C / a (axial pair,
the largest stretch) above 1; bending takes its largest stretch.
numeric_load_bounds reproduces them by bisection on the feasibility
predicate; brute_force_oracle does so by brute scan. Both take a body's
window as C / lambda_max, with lambda_max the largest principal stretch
sampled across the body (its two end stations when bending), not from any
formula here.

The open-contact regime carries the load through the contact face alone,
which pins tau to 0 (or the cohesive cap g); it is reported as a
degenerate singleton interval.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleProblem, InvalidParameters
from .kinematics import R_MIN, TriaxialStretch
from .material import Constant
from .tensor3 import _cpow, _sum9, cofactor

__all__ = [
    "LoadInterval",
    "CriteriaResult",
    "pressure_window",
    "criteria_check",
    "load_interval_compression",
    "load_interval_cohesive",
    "load_interval_bending",
    "search_bracket",
    "numeric_load_bounds",
    "brute_force_oracle",
]

#: X-resolution for pointwise checks across a bending body
X_SAMPLES = 33

#: bisection stops once each final bracket is this narrow
BISECTION_TOL = 1e-8

#: loads in the coarse scan that seeds the bisection
COARSE_N = 129

#: stations x probes per block of criteria_check: a few MB of products and forms
CRITERIA_BLOCK = 65536


@dataclass(frozen=True)
class LoadInterval:
    """Open interval (tau_lo, tau_hi) of sustainable loads.

    Open-regime results are singletons with tau_lo == tau_hi. empty is
    true when the closed-regime conditions exclude every load.
    """

    tau_lo: float
    tau_hi: float
    regime: str  # "closed" or "open"
    empty: bool


@dataclass(frozen=True)
class CriteriaResult:
    primal_ok: bool
    complementary_ok: bool
    min_quadratic_value: float
    pressure_window: tuple


def _check_positive(**kw):
    for name, v in kw.items():
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
            raise InvalidParameters("%s = %r must be positive" % (name, v))


def pressure_window(body):
    """Pressure interval keeping the constrained Hessian positive."""
    w = body.material.C / body.map.stretch_max(body.domain)
    return (-w, w)


@functools.lru_cache(maxsize=64)
def _stations(lo, hi, triaxial):
    # (x, w, k) of criteria_check: the complementary side's k edge stations
    # with w = 1.0 (x * 1.0 is x, NaN included), then the primal side's
    # interior stations with the squared bubble; built once per (x-range,
    # family) and shared, so read-only
    if triaxial:
        edge = inner = np.asarray([0.5 * (lo + hi)])  # the state does not vary with x
    else:
        edge, inner = np.linspace(lo, hi, X_SAMPLES), np.linspace(lo, hi, X_SAMPLES + 2)[1:-1]
    xs = np.concatenate((edge, inner))
    w = np.concatenate((np.ones(len(edge)), _cpow((inner - lo) * (hi - inner), 2)))
    for v in (xs, w):
        v.setflags(write=False)
    return xs, w, len(edge)


def _probes(rng, count):
    # (6 + count, 3, 3) unit probes. Shear probes are tangent to the
    # constraint at a diagonal state: cof(F) : G = 0 whenever G has no
    # diagonal entries; the seeded ones fill the off-diagonal entries
    G = np.zeros((6 + count, 3, 3))
    shear = [(i, j, s) for i, j in ((0, 1), (0, 2), (1, 2)) for s in (1.0, -1.0)]
    for n, (i, j, s) in enumerate(shear):
        G[n, i, j] = 1.0 / math.sqrt(2.0)
        G[n, j, i] = s / math.sqrt(2.0)
    R = G[6:]
    R[:, [0, 0, 1, 1, 2, 2], [1, 2, 0, 2, 0, 1]] = rng.standard_normal((count, 6))
    R /= np.sqrt(_sum9(R * R))[:, None, None]
    return G


@functools.lru_cache(maxsize=8, typed=True)
def _probe_set(seed, count):
    # (|G|^2, the diagonal rows cof_00, cof_11, cof_22 of cof G) of the
    # probes drawn from the int seed: one read-only copy per (seed, count),
    # shared by every criteria_check; 8 entries, as one holds about 3 MB at
    # 100,000 probes. Typed, so that a float count fails in _probes even
    # when its int twin is cached
    probes = _probes(np.random.default_rng(seed), count)
    gg = _sum9(probes * probes)
    cd = np.ascontiguousarray(cofactor(probes).diagonal(axis1=1, axis2=2).T)
    for v in (gg, cd):
        v.setflags(write=False)
    return gg, cd


def _running_min(m, values):
    # min(m, v0, v1, ...) left to right as a Python float: a NaN value is
    # never taken, and of equal values (0.0 and -0.0) the first wins, which
    # numpy's reductions do not promise
    v = np.ravel(values)
    least = np.fmin.reduce(v, initial=m)  # skips NaN; m when nothing is smaller
    return float(min(m, v[np.argmax(v == least)]))


def _probe_forms(probe_count, seed):
    # _probe_set's cached arrays for criteria_check
    if probe_count < 1:
        raise InvalidParameters("probe_count must be >= 1")
    if not (isinstance(seed, int) and seed >= 0):
        raise InvalidParameters("seed = %r must be an int >= 0" % (seed,))
    return _probe_set(seed, probe_count)


def _cof_dots(cd, F):
    # cof(G) : F, stations (rows of F) by probes, from the probes' diagonal
    # cofactor rows cd. Every body's gradient is diagonal (triaxial, and bending
    # in its frame), and cof(G) : F of diagonal F is (c00 F00 + c11 F11) + c22 F22:
    # _sum9's pairwise sum of the nine products adds these three and six exact
    # zeros, so it differs at most in the sign of a zero, which C |G|^2 > 0 absorbs
    d = F.diagonal(axis1=-2, axis2=-1)
    return (cd[0] * d[:, 0, None] + cd[1] * d[:, 1, None]) + cd[2] * d[:, 2, None]


def _forms(C, probes, F, p):
    # material.hessian_quadratic_form, stations (rows of F, p) by probes
    gg, cd = probes
    return C * gg - p[:, None] * 2.0 * _cof_dots(cd, F)


def _minima(body, probes):
    # (complementary, primal) min of w * _forms over the stations and the
    # probes, from one state stack, by blocks of stations; a block that
    # straddles the split feeds each side its own rows
    dom = body.domain
    xs, w, k = _stations(dom.x_lo, dom.x_hi, isinstance(body.map, TriaxialStretch))
    F, p = body.state(xs)
    comp = primal = math.inf
    n = max(1, CRITERIA_BLOCK // len(probes[0]))
    for i in range(0, len(xs), n):
        q = w[i : i + n, None] * _forms(body.material.C, probes, F[i : i + n], p[i : i + n])
        j = max(0, k - i)  # the block's complementary rows
        if j > 0:
            comp = _running_min(comp, q[:j])
        if j < len(q):
            primal = _running_min(primal, q[j:])
    return comp, primal


def _edge_minima(body, probes, pressures):
    # _minima(dataclasses.replace(body, pressure=Constant(p)), probes)[0] for
    # each p in turn, from one gradient stack and cof(G) : F block s: the
    # edge weights are 1.0 (x * 1.0 is x), (p * 2.0) * s is the column form
    # p[:, None] * 2.0 * s, and one block's running min is that of _minima's
    dom = body.domain
    xs, _, k = _stations(dom.x_lo, dom.x_hi, isinstance(body.map, TriaxialStretch))
    gg, cd = probes
    Cgg, s = body.material.C * gg, _cof_dots(cd, body.map.gradient(xs[:k]))
    return [_running_min(math.inf, Cgg - (Constant(p).p * 2.0) * s) for p in pressures]


def criteria_check(body, probe_count=200, seed=42):
    """Pointwise positivity of the constrained second variation.

    The complementary side evaluates the quadratic form on unit shear
    probes at sample stations across the body; the primal side weights
    the same stations by the square of a polynomial bubble vanishing on
    both x-faces, so a probe field scaled by the bubble is an admissible
    variation whatever the body's role. Deterministic probes aligned
    with each shear plane make the sign change at the window edge exact;
    the seeded random probes guard the rest of the tangent space; the
    seed is an int >= 0.
    """
    comp_min, primal_min = _minima(body, _probe_forms(probe_count, seed))
    return CriteriaResult(
        primal_ok=bool(primal_min > 0.0),
        complementary_ok=bool(comp_min > 0.0),
        min_quadratic_value=float(comp_min),
        pressure_window=pressure_window(body),
    )


def _body_loads(C, a):
    """(lo, hi) of the loads with |C a^2 - tau| inside one triaxial body's
    window: C sqrt(a) for a <= 1, C / a above 1."""
    try:
        a2 = a**2
    except OverflowError:
        raise OverflowError("closed-form window: stretch a = %r overflows in a^2" % (a,)) from None
    if a <= 1.0:
        return C * (a2 - math.sqrt(a)), C * (math.sqrt(a) + a2)
    return C * (a2 - 1.0 / a), C * (a2 + 1.0 / a)


def _triaxial_interval(C1, C2, a1, a2, cap, contact_closed):
    # the triaxial pair's loads up to the traction cap, 0.0 or g; a body's
    # upper end is positive or +0.0, so a cap of 0.0 is the minimum itself
    if not contact_closed:
        return LoadInterval(cap, cap, "open", False)
    (lo1, hi1), (lo2, hi2) = _body_loads(C1, a1), _body_loads(C2, a2)
    lo, hi = max(lo1, lo2), min(cap, hi1, hi2)
    return LoadInterval(lo, hi, "closed", not lo < hi)


def load_interval_compression(C1, C2, a1, a2, contact_closed=True):
    """Sustainable compressive loads for the triaxial pair."""
    _check_positive(C1=C1, C2=C2, a1=a1, a2=a2)
    return _triaxial_interval(C1, C2, a1, a2, 0.0, contact_closed)


def load_interval_cohesive(C1, C2, a1, a2, g, contact_closed=True):
    """Sustainable loads with cohesive traction cap g > 0."""
    _check_positive(C1=C1, C2=C2, a1=a1, a2=a2, g=g)
    return _triaxial_interval(C1, C2, a1, a2, g, contact_closed)


def load_interval_bending(C1, C2, A, a1, a2, b1, b2, contact_closed=True):
    """Sustainable radial loads for the bending pair.

    The contact radius is body 1's outer radius r1 = sqrt(a1 + b1); the
    linkage reads both pressures off the traction there.
    """
    _check_positive(C1=C1, C2=C2, A=A, a1=a1, a2=a2)
    if b1 < R_MIN**2:
        raise InvalidParameters("inner square radius b1 = %r below minimum" % (b1,))
    if a2 + b2 <= 0.0:
        raise InvalidParameters("body 2 radii must stay positive")
    if not contact_closed:
        return LoadInterval(0.0, 0.0, "open", False)
    r0 = math.sqrt(b1)
    r1 = math.sqrt(a1 + b1)
    r2 = math.sqrt(2.0 * a2 + b2)
    for name, a in (("a1", a1), ("a2", a2)):
        if A * math.sqrt(a) == 0.0:  # the axial stretch 1 / (A sqrt(a)) divides by zero
            msg = "closed-form window: A sqrt(%s) underflows to 0 for A = %r, %s = %r"
            raise ZeroDivisionError(msg % (name, A, name, a))
    lmax1 = max(a1 / r0, A * r1 / math.sqrt(a1), 1.0 / (A * math.sqrt(a1)))
    lmax2 = max(a2 / r1, A * r2 / math.sqrt(a2), 1.0 / (A * math.sqrt(a2)))
    rho_c = a1 + b1  # r1**2 can round above it
    ends = []
    for name, C, a, lmax in (("a1", C1, a1, lmax1), ("a2", C2, a2, lmax2)):
        try:
            ends.append(C / lmax - C * a**2 / rho_c)
        except OverflowError:
            raise OverflowError(
                "closed-form window: stretch %s = %r overflows in %s^2" % (name, a, name)
            ) from None
    lo = 0.0 - min(ends)  # not -min(...): a zero minimum gives +0.0, not -0.0
    hi = 0.0
    return LoadInterval(lo, hi, "closed", not lo < hi)


def _linkage_square(a):
    # a^2 of one body's stretch for _linkage, naming the stretch when the
    # Python float power overflows
    try:
        return a**2
    except OverflowError:
        raise OverflowError("linkage: stretch a = %r overflows in a^2" % (a,)) from None


def _linkage(example, fp):
    """(per body (C, normal stretch factor s, largest sampled stretch lam),
    load cap: the cohesive g, which must be positive, else 0.0); the one
    place in this module that tells the examples apart."""
    if example in ("compression", "cohesive"):
        cap = 0.0
        if example == "cohesive":
            cap = fp.get("g")
            _check_positive(g=cap)
        out = []
        for C, a in ((fp["C1"], fp["a1"]), (fp["C2"], fp["a2"])):
            _check_positive(C=C, a=a)
            out.append((C, _linkage_square(a), max(a, 1.0 / math.sqrt(a))))
        return out, cap
    if example == "bending":
        A, b1 = fp["A"], fp["b1"]
        _check_positive(A=A)
        if b1 < R_MIN**2:
            raise InvalidParameters("b1 = %r below minimum" % (b1,))
        rho_c = fp["a1"] + b1
        b2 = rho_c - fp["a2"] if fp.get("b2") is None else fp["b2"]
        out = []
        for C, a, b, x_lo in ((fp["C1"], fp["a1"], b1, 0.0), (fp["C2"], fp["a2"], b2, 0.5)):
            _check_positive(C=C, a=a)
            # principal stretches a / r, A r / sqrt(a) and 1 / (A sqrt(a)); the
            # first two and their correctly rounded floats are monotone in rho,
            # so their maxima over 65 stations are the end stations' values
            rho_lo, rho_hi = 2.0 * a * x_lo + b, 2.0 * a * (x_lo + 0.5) + b
            if not rho_lo > 0.0:  # rho grows with x: the first station decides; a NaN too
                raise InvalidParameters("nonpositive radius in body")
            sa = math.sqrt(a)
            if A * sa == 0.0:  # the axial stretch 1 / (A sqrt(a)) divides by zero
                raise ZeroDivisionError("linkage: A sqrt(a) underflows to 0 for A = %r, a = %r"
                                        % (A, a))
            lam = max(a / math.sqrt(rho_lo), A * math.sqrt(rho_hi) / sa, 1.0 / (A * sa))
            out.append((C, _linkage_square(a) / rho_c, lam))
        return out, 0.0
    raise InvalidParameters("unknown example %r" % (example,))


def _feasible_closed(tau, linkage, cap):
    # the window |C s - tau| < C / lam of every body, for one load or an
    # array of them; C / lam is the least of the thresholds C / lambda_k,
    # as division rounds monotonically, and tau <= cap rejects a NaN load
    ok = tau <= cap
    for C, s, lam in linkage:
        ok = ok & (abs(C * s - tau) < C / lam)
    return ok


def _bracket(linkage, cap):
    # |tau| <= C s + C lam on any feasible load, so a cohesive cap above
    # span cuts off nothing and must not stretch the bracket
    span = max(C * s + C * lam for C, s, lam in linkage)
    return -2.0 * span - 1.0, min(cap, span) + 2.0 * span + 1.0


def _scan(linkage, cap, n):
    # the bracket and the feasible loads of an n-point grid over it
    b_lo, b_hi = _bracket(linkage, cap)
    taus = np.linspace(b_lo, b_hi, n)
    return b_lo, b_hi, taus[_feasible_closed(taus, linkage, cap)]


def search_bracket(example, fixed_params):
    """Load bracket guaranteed to contain every feasible load."""
    return _bracket(*_linkage(example, fixed_params))


def _bisect(inside, outside, linkage, cap):
    # halve between a feasible and an infeasible load until the two are
    # BISECTION_TOL apart or no float lies between them; the feasible end
    while abs(outside - inside) > BISECTION_TOL:
        mid = 0.5 * (inside + outside)
        if mid == inside or mid == outside:
            break
        if _feasible_closed(mid, linkage, cap):
            inside = mid
        else:
            outside = mid
    return inside


def numeric_load_bounds(example, fixed_params):
    """Bisect the feasibility predicate for the load interval endpoints.

    Returns the feasible side of each final bracket, so both endpoints
    are accepted loads within BISECTION_TOL of the closed forms, or as
    close as the float spacing at their size allows. Raises
    InfeasibleProblem when no load in the bracket is feasible and
    OverflowError when the bracket is not finite.
    """
    linkage, cap = _linkage(example, fixed_params)
    if not fixed_params.get("contact_closed", True):
        return LoadInterval(cap, cap, "open", False)
    b_lo, b_hi, feas = _scan(linkage, cap, COARSE_N)
    if not len(feas):
        # the scan can step over a narrow interval: seed both bisections
        # from the middle of the windows' own intersection
        lo_w = max(C * s - C / lam for C, s, lam in linkage)
        feas = [0.5 * (lo_w + min(cap, *(C * s + C / lam for C, s, lam in linkage)))]
        if not _feasible_closed(feas[0], linkage, cap):
            raise InfeasibleProblem("no feasible load in [%g, %g]" % (b_lo, b_hi))
    if not (math.isfinite(b_lo) and math.isfinite(b_hi)):
        raise OverflowError("load bracket [%g, %g] overflows" % (b_lo, b_hi))
    # the feasible-side ends: every reported load passes the predicate. The
    # seeds are Python floats, exactly the scan's, so no numpy scalar op runs
    lo = _bisect(float(feas[0]), b_lo, linkage, cap)
    return LoadInterval(lo, _bisect(float(feas[-1]), b_hi, linkage, cap), "closed", False)


def brute_force_oracle(example, fixed_params, grid_n=1000):
    """Scan a load grid and accept by first principles.

    For each grid load the linkage pressure pair is tested against the
    stability thresholds derived from sampled principal stretches. The
    hull of accepted loads is returned. When the grid accepts nothing,
    grid_n loads across the cells next to the grid load nearest to
    feasibility are scanned too; when they accept nothing either, the
    open-regime singleton is reported instead.
    """
    if grid_n < 2:
        raise InvalidParameters("grid_n must be >= 2")
    linkage, cap = _linkage(example, fixed_params)
    b_lo, b_hi, acc = _scan(linkage, cap, grid_n + 1)
    closed = fixed_params.get("contact_closed", True)
    if closed and not len(acc):
        # an interval narrower than the grid step can lie between two grid
        # loads: rescan the cells next to the grid load whose worst margin,
        # past the cap or a body's window edge, is least. Each margin is
        # |slope| 1 in tau, so their maximum is convex and least nearest
        # the middle of the feasible set
        taus = np.linspace(b_lo, b_hi, grid_n + 1)
        worst = taus - cap
        for C, s, lam in linkage:
            worst = np.maximum(worst, abs(C * s - taus) - C / lam)
        i = np.argmin(worst)
        taus = np.linspace(taus[max(i - 1, 0)], taus[min(i + 1, grid_n)], grid_n + 1)
        acc = taus[_feasible_closed(taus, linkage, cap)]
    if closed and len(acc):
        return LoadInterval(float(acc[0]), float(acc[-1]), "closed", False)
    # closed regime rejected everything: the open regime carries the
    # load through the free contact face, pinning tau to the cap
    return LoadInterval(cap, cap, "open", False)
