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

Both read a linkage through its window table, (C s, C / lam) per body,
built once per search with its bracket; the CLI's run() shares one search
between the bisection, the oracle and the agreement check. The bisection
is seeded by the first and last feasible loads of a 129-point grid over
the bracket, found without the grid: the feasible loads are one run of
floats, so an index estimate from the windows' intersection is walked to
a load that fails no window from below and whose predecessor does (the
last load likewise from above). tests/refimpl.py keeps the numpy scan
and bisection over the linkage that this replaced.

The open-contact regime carries the load through the contact face alone,
which pins tau to 0 (or the cohesive cap g); it is reported as a
degenerate singleton interval.

criteria_check forms the quadratic form from each body's diagonal
gradient and pressure at its stations, as station columns against the
probes, one row for a triaxial body, whose state does not vary with x;
tests/refimpl.py keeps the form over a gradient stack.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleProblem, InvalidParameters
from .kinematics import R_MIN, TriaxialStretch
from .material import Constant
from .tensor3 import _axial_rate, _cpow, _square, _sum9, cofactor

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


def _column(v):
    # a value per station as a column against the probes; a float, the same
    # at every station, stays a float
    return v[:, None] if np.ndim(v) else v


def _cof_dots(cd, d0, d1, d2):
    # cof(G) : F at F = diag(d0, d1, d2), stations by probes, from the probes'
    # diagonal cofactor rows cd; d0, d1 and d2 are station columns or floats.
    # Every body's gradient is diagonal (triaxial, and bending in its frame),
    # and cof(G) : F of diagonal F is (c00 F00 + c11 F11) + c22 F22: _sum9's
    # pairwise sum of the nine products adds these three and six exact zeros,
    # so it differs at most in the sign of a zero, which C |G|^2 > 0 absorbs
    return (cd[0] * d0 + cd[1] * d1) + cd[2] * d2


def _forms(C, probes, p, d0, d1, d2):
    # C G : G - 2 p cof(G) : F at F = diag(d0, d1, d2), stations by probes, p
    # and the diagonal as station columns or floats: the floats of
    # hessian_quadratic_form in tests/refimpl.py, one call per probe and station
    gg, cd = probes
    return C * gg - p * 2.0 * _cof_dots(cd, d0, d1, d2)


def _minima(body, probes):
    # (complementary, primal) min of w * _forms over the stations and the
    # probes, from the gradient's diagonal and the pressure at every station,
    # by blocks of stations; a block that straddles the split feeds each side
    # its own rows, and the edge rows, of weight 1.0, need no product (x * 1.0
    # is x). A triaxial state is the same at every station: one row serves both
    dom, m = body.domain, body.map
    xs, w, k = _stations(dom.x_lo, dom.x_hi, isinstance(m, TriaxialStretch))
    r = m.radius(xs)
    d0, d1, d2 = m._diagonal(r)
    p = body.pressure(r)
    C = body.material.C
    if r is None:
        row = _forms(C, probes, p, d0, d1, d2)
        return _running_min(math.inf, row), _running_min(math.inf, w[k] * row)
    d0, d1, p = _column(d0), _column(d1), _column(p)
    comp = primal = math.inf
    n = max(1, CRITERIA_BLOCK // len(probes[0]))
    for i in range(0, len(xs), n):
        block = slice(i, i + n)
        q = _forms(C, probes, p[block] if np.ndim(p) else p, d0[block], d1[block], d2)
        j = max(0, k - i)  # the block's complementary rows
        if j > 0:
            comp = _running_min(comp, q[:j])
        if j < len(q):
            primal = _running_min(primal, w[i + j : i + n, None] * q[j:])
    return comp, primal


def _edge_minima(body, probes, pressures):
    # _minima(dataclasses.replace(body, pressure=Constant(p)), probes)[0] for
    # each p in turn, from one diagonal and cof(G) : F block s: (p * 2.0) * s
    # is the column form p[:, None] * 2.0 * s, and one block's running min is
    # that of _minima's
    dom, m = body.domain, body.map
    xs, _, k = _stations(dom.x_lo, dom.x_hi, isinstance(m, TriaxialStretch))
    d0, d1, d2 = m._diagonal(m.radius(xs[:k]))
    gg, cd = probes
    Cgg, s = body.material.C * gg, _cof_dots(cd, _column(d0), _column(d1), d2)
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
    a2 = _square(a, "closed-form window: stretch a = %r overflows in a^2")
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
    k1, k2 = (_axial_rate(A, a, "closed-form window", n) for n, a in (("a1", a1), ("a2", a2)))
    lmax1 = max(a1 / r0, A * r1 / math.sqrt(a1), 1.0 / k1)
    lmax2 = max(a2 / r1, A * r2 / math.sqrt(a2), 1.0 / k2)
    rho_c = a1 + b1  # r1**2 can round above it
    msg = "closed-form window: stretch %s = %%r overflows in %s^2"
    ends = [C / lmax - C * _square(a, msg % (n, n)) / rho_c
            for n, C, a, lmax in (("a1", C1, a1, lmax1), ("a2", C2, a2, lmax2))]
    lo = 0.0 - min(ends)  # not -min(...): a zero minimum gives +0.0, not -0.0
    hi = 0.0
    return LoadInterval(lo, hi, "closed", not lo < hi)


def _linkage(example, fp):
    """(per body (C, normal stretch factor s, largest sampled stretch lam),
    load cap: the cohesive g, which must be positive, else 0.0); the one
    place in this module that tells the examples apart."""
    square = "linkage: stretch a = %r overflows in a^2"
    if example in ("compression", "cohesive"):
        cap = 0.0
        if example == "cohesive":
            cap = fp.get("g")
            _check_positive(g=cap)
        out = []
        for C, a in ((fp["C1"], fp["a1"]), (fp["C2"], fp["a2"])):
            _check_positive(C=C, a=a)
            out.append((C, _square(a, square), max(a, 1.0 / math.sqrt(a))))
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
            k = _axial_rate(A, a, "linkage")
            lam = max(a / math.sqrt(rho_lo), A * math.sqrt(rho_hi) / math.sqrt(a), 1.0 / k)
            out.append((C, _square(a, square) / rho_c, lam))
        return out, 0.0
    raise InvalidParameters("unknown example %r" % (example,))


def _windows(linkage):
    # the window table: per body (C s, C / lam), so that a load tau lies in
    # the body's window when |C s - tau| < C / lam; C / lam is the least of
    # the thresholds C / lambda_k, as division rounds monotonically
    return tuple((C * s, C / lam) for C, s, lam in linkage)


def _feasible_closed(tau, table, cap):
    # every body's window and tau <= cap, which rejects a NaN load, for one
    # load or an array of them
    ok = tau <= cap
    for cs, w in table:
        ok = ok & (abs(cs - tau) < w)
    return ok


def _window_ends(table, cap):
    # the ends of the windows' intersection below the cap
    (cs1, w1), (cs2, w2) = table
    return max(cs1 - w1, cs2 - w2), min(cap, cs1 + w1, cs2 + w2)


def _bracket(linkage, cap):
    # |tau| <= C s + C lam on any feasible load, so a cohesive cap above
    # span cuts off nothing and must not stretch the bracket
    span = max(C * s + C * lam for C, s, lam in linkage)
    return -2.0 * span - 1.0, min(cap, span) + 2.0 * span + 1.0


class _Search(NamedTuple):
    # one linkage's load search, shared by the bisection, the oracle and the
    # CLI's agreement check
    table: tuple  # _windows of the linkage
    cap: float
    bracket: tuple  # (b_lo, b_hi)
    closed: bool  # the contact regime


def _search(example, fixed_params):
    linkage, cap = _linkage(example, fixed_params)
    closed = fixed_params.get("contact_closed", True)
    return _Search(_windows(linkage), cap, _bracket(linkage, cap), closed)


def search_bracket(example, fixed_params):
    """Load bracket guaranteed to contain every feasible load."""
    return _bracket(*_linkage(example, fixed_params))


def _scan(table, cap, lo, hi, n):
    # the n-point grid over [lo, hi] and its feasible loads, by numpy
    taus = np.linspace(lo, hi, n)
    return taus, taus[_feasible_closed(taus, table, cap)]


def _seeds(table, cap, bracket, n):
    # (first, last) feasible load of _scan's grid over the bracket, as Python
    # floats, or None when it holds none. Load i < n - 1 is i * step + b_lo,
    # linspace's arithmetic, and the last b_hi; b_lo < b_hi (_bracket's is at
    # least 2 wide), so the loads ascend. As C s - tau rounds monotonically,
    # the loads that fail a window from below (C s - tau >= w) form a first
    # run of the grid, those past the cap or a window's upper edge a last
    # run, and the finite loads between are the feasible ones. Each run's end
    # is estimated from the windows' intersection and walked to where it is
    # certified: below at i - 1 and not at i, not above at j and above at j + 1
    b_lo, b_hi = bracket
    step = (b_hi - b_lo) / (n - 1)
    if not step < math.inf:  # every load but b_hi is NaN or infinite: numpy decides
        feas = _scan(table, cap, b_lo, b_hi, n)[1].tolist()
        return (feas[0], feas[-1]) if feas else None
    (cs1, w1), (cs2, w2) = table
    lo_w, hi_w = _window_ends(table, cap)

    def load(i):
        return b_hi if i == n - 1 else i * step + b_lo

    def below(tau):
        return cs1 - tau >= w1 or cs2 - tau >= w2

    def above(tau):
        return tau > cap or cs1 - tau <= -w1 or cs2 - tau <= -w2

    # the index past the last load below lo_w, clamped to [0, n]
    i = int(max(min((lo_w - b_lo) / step, n - 1.0), -1.0)) + 1
    while i > 0 and not below(load(i - 1)):
        i -= 1
    while i < n and below(load(i)):
        i += 1
    # the index of the last load below hi_w, clamped to [-1, n - 1]
    j = int(max(min((hi_w - b_lo) / step, n - 1.0), -1.0))
    while j < n - 1 and not above(load(j + 1)):
        j += 1
    while j >= 0 and above(load(j)):
        j -= 1
    return (load(i), load(j)) if i <= j else None


def _bisect(inside, outside, table, cap):
    # halve between a feasible and an infeasible load until the two are
    # BISECTION_TOL apart or no float lies between them; the feasible end
    (cs1, w1), (cs2, w2) = table
    while abs(outside - inside) > BISECTION_TOL:
        mid = 0.5 * (inside + outside)
        if mid == inside or mid == outside:
            break
        if mid <= cap and abs(cs1 - mid) < w1 and abs(cs2 - mid) < w2:
            inside = mid
        else:
            outside = mid
    return inside


def _numeric(search):
    # numeric_load_bounds of a built search
    table, cap, (b_lo, b_hi), closed = search
    if not closed:
        return LoadInterval(cap, cap, "open", False)
    seeds = _seeds(table, cap, (b_lo, b_hi), COARSE_N)
    if seeds is None:
        # the scan can step over a narrow interval: seed both bisections
        # from the middle of the windows' own intersection
        lo_w, hi_w = _window_ends(table, cap)
        mid = 0.5 * (lo_w + hi_w)
        if not _feasible_closed(mid, table, cap):
            raise InfeasibleProblem("no feasible load in [%g, %g]" % (b_lo, b_hi))
        seeds = mid, mid
    if not (math.isfinite(b_lo) and math.isfinite(b_hi)):
        raise OverflowError("load bracket [%g, %g] overflows" % (b_lo, b_hi))
    # the feasible-side ends: every reported load passes the predicate
    lo = _bisect(seeds[0], b_lo, table, cap)
    return LoadInterval(lo, _bisect(seeds[1], b_hi, table, cap), "closed", False)


def numeric_load_bounds(example, fixed_params):
    """Bisect the feasibility predicate for the load interval endpoints.

    Returns the feasible side of each final bracket, so both endpoints
    are accepted loads within BISECTION_TOL of the closed forms, or as
    close as the float spacing at their size allows. Raises
    InfeasibleProblem when no load in the bracket is feasible and
    OverflowError when the bracket is not finite.
    """
    return _numeric(_search(example, fixed_params))


def _oracle(search, grid_n):
    # brute_force_oracle of a built search
    table, cap, (b_lo, b_hi), closed = search
    if not closed:
        return LoadInterval(cap, cap, "open", False)
    taus, acc = _scan(table, cap, b_lo, b_hi, grid_n + 1)
    if not len(acc):
        # an interval narrower than the grid step can lie between two grid
        # loads: rescan the cells next to the grid load whose worst margin,
        # past the cap or a body's window edge, is least. Each margin is
        # |slope| 1 in tau, so their maximum is convex and least nearest
        # the middle of the feasible set
        worst = taus - cap
        for cs, w in table:
            worst = np.maximum(worst, abs(cs - taus) - w)
        i = np.argmin(worst)
        acc = _scan(table, cap, taus[max(i - 1, 0)], taus[min(i + 1, grid_n)], grid_n + 1)[1]
    if len(acc):
        return LoadInterval(float(acc[0]), float(acc[-1]), "closed", False)
    # closed regime rejected everything: the open regime carries the
    # load through the free contact face, pinning tau to the cap
    return LoadInterval(cap, cap, "open", False)


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
    return _oracle(_search(example, fixed_params), grid_n)
