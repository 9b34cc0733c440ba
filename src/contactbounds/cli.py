"""Config-driven front end.

Subcommands:

* run: evaluate one configured system end to end (admissibility, contact
  state, energy bracket, load intervals from closed form, bisection, and
  brute-force scan, stability criteria) and render a report,
* sweep: vary one parameter and tabulate the closed-form interval,
* verify: execute the built-in consistency battery for the config.

Config files are INI-like: [section] headers, key = value lines, and
'#' comments. Unknown sections or keys are rejected with the offending
line number so typos cannot silently change a run.
"""

import argparse
import dataclasses
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContactBoundsError,
    FamilyMismatch,
    InadmissibleTrial,
    InfeasibleProblem,
    InvalidParameters,
    ParseError,
    ValidationError,
)
from . import contact, tensor3
from .kinematics import TriaxialStretch, injectivity_check, jacobian
from .material import NeoHookeanIncompressible, piola_stress
from .contact import check_kinematic, check_static, evaluate_contact, nominal_traction, rivlin_f
from .energy import QuadratureRule, _enclose, _resolved_data, potential_energy
from .bounds import (
    _edge_minima,
    _probe_forms,
    brute_force_oracle,
    criteria_check,
    load_interval_bending,
    load_interval_compression,
    load_interval_cohesive,
    numeric_load_bounds,
    pressure_window,
    search_bracket,
)
from .states import bend_pair, bending_b2, bending_system, stretch_pair, triaxial_system

__all__ = [
    "BodyConfig",
    "ProblemConfig",
    "RunReport",
    "parse_config",
    "build_system",
    "run",
    "sweep",
    "verify",
    "format_report",
    "main",
]

SECTIONS = {
    "system": ("example", "A"),
    "body1": ("C", "a", "b", "pressure"),
    "body2": ("C", "a", "b", "pressure"),
    "contact": ("d_allow", "g"),
    "load": ("tau",),
    "numerics": ("quad_order", "grid_n", "probe_count", "seed"),
}

SWEEP_PARAMS = ("a1", "a2", "g", "A", "b1", "b2", "C1", "C2")
#: bounds the linspace and the output of one sweep
MAX_SWEEP_STEPS = 100_000

# closed warning vocabulary; every warning a run can emit is one of these
W_DEGENERATE = "degenerate: identity stretch"
W_OPEN_CONTACT = "open contact at the shared plane"
W_MISMATCH = "closed-form/numeric/oracle mismatch: %s"
W_EMPTY = "empty load interval: %s"
W_ENCLOSURE_SKIPPED = "enclosure skipped: %s"
W_BEND_LINKAGE = (
    "bending intervals use the contact-plane pressure linkage; "
    "the equilibrium pressure profile varies across each body"
)


def _triaxial(tau=None, **kw):  # the load shapes only a bending state
    return triaxial_system(**kw)


def _bending(**kw):
    return bending_system(**kw)


def _stretch_ref(config):
    tau_ref = -0.3 * min(config.body1.C, config.body2.C)
    return tau_ref, stretch_pair(config.body1.C, config.body2.C, tau_ref)


def _bend_ref(config):
    C1, a1, b1, a2 = config.body1.C, config.body1.a, config.body1.b, config.body2.a
    need = rivlin_f(C1, config.A, a1, b1 + a1) - rivlin_f(C1, config.A, a1, b1)
    tau_ref = -need * math.sqrt(b1) / a1 - 0.5 * C1
    return tau_ref, bend_pair(C1, config.body2.C, config.A, a1, a2, a1 + a2 + b1, tau_ref)


def _stretch_trial(exact, delta):
    # a steeper body 1 whose offset keeps the contact plane closed
    a_t, m2, xc = exact.body1.map.a * (1.0 + delta), exact.body2.map, exact.x_c
    return TriaxialStretch(a_t, m2.a * xc + m2.b - a_t * xc - delta * 0.05)


def _bend_trial(exact, delta):
    return dataclasses.replace(exact.body1.map, b=exact.body1.map.b - delta * 0.1)


@dataclass(frozen=True)
class Example:
    """Everything the front end decides per example."""

    params: tuple  # the closed form's keywords after C1, C2, a1, a2
    closed_form: object
    build: object  # calls the states constructor by its module name, which a tracer can patch
    reference: object  # config -> (tau_ref, exact pair), for verify
    trial: object  # (exact pair, delta) -> verify's trial map for body 1
    notes: tuple = ()  # warnings that every run carries


EXAMPLES = {
    "compression": Example((), load_interval_compression, _triaxial, _stretch_ref, _stretch_trial),
    "cohesive": Example(("g",), load_interval_cohesive, _triaxial, _stretch_ref, _stretch_trial),
    "bending": Example(("A", "b1", "b2"), load_interval_bending, _bending, _bend_ref, _bend_trial,
                       (W_BEND_LINKAGE,)),
}


@dataclass(frozen=True)
class BodyConfig:
    C: float
    a: float
    b: float = None
    pressure: float = None


@dataclass(frozen=True)
class ProblemConfig:
    example: str
    body1: BodyConfig
    body2: BodyConfig
    A: float = None
    d_allow: float = 0.0
    g: float = 0.0
    tau: float = None
    quad_order: int = 8
    grid_n: int = 1000
    probe_count: int = 200
    seed: int = 42


@dataclass(frozen=True)
class RunReport:
    config: ProblemConfig
    kinematic: object
    static: object
    contact: object
    enclosure: object
    closed_form: object
    numeric: object
    oracle: object
    criteria: tuple
    warnings: tuple


def _parse_sections(text):
    raw = {}
    section = None
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError("malformed section header", ln)
            name = stripped[1:-1].strip()
            if name not in SECTIONS:
                raise ParseError("unknown section [%s]" % name, ln)
            if name in raw:
                raise ParseError("duplicate section [%s]" % name, ln)
            raw[name] = {}
            section = name
            continue
        if section is None:
            raise ParseError("key outside any section", ln)
        key, sep, val = stripped.partition("=")
        if not sep:
            raise ParseError("expected key = value", ln)
        key, val = key.strip(), val.strip()
        if key not in SECTIONS[section]:
            raise ParseError("unknown key '%s' in [%s]" % (key, section), ln)
        if key in raw[section]:
            raise ParseError("duplicate key '%s'" % key, ln)
        if not val:
            raise ParseError("empty value for '%s'" % key, ln)
        raw[section][key] = (val, ln)
    return raw


def _take_number(raw, section, key, default=None, kind=float):
    item = raw.get(section, {}).get(key)
    if item is None:
        return default
    val, ln = item
    try:
        return kind(val)
    except ValueError:
        what = "a number" if kind is float else "an integer"
        raise ParseError("cannot parse '%s' as %s" % (val, what), ln) from None


def parse_config(text):
    """Parse config text into a ProblemConfig, validating every field.

    A key the text leaves out keeps the dataclass default."""
    raw = _parse_sections(text)
    item = raw.get("system", {}).get("example")
    if item is None:
        raise ValidationError("[system] example is required")
    example = item[0]
    if example not in EXAMPLES:
        raise ValidationError(
            "example must be one of %s, got '%s'" % ("/".join(EXAMPLES), example)
        )
    bodies = []
    for sec in ("body1", "body2"):
        C = _take_number(raw, sec, "C")
        a = _take_number(raw, sec, "a")
        if C is None or a is None:
            raise ValidationError("[%s] requires C and a" % sec)
        if not (math.isfinite(C) and C > 0.0):
            raise ValidationError("[%s] C must be positive" % sec)
        if not (math.isfinite(a) and a > 0.0):
            raise ValidationError("[%s] a must be positive" % sec)
        given = {k: _take_number(raw, sec, k) for k in ("b", "pressure")}
        for k, v in given.items():
            if v is not None and not math.isfinite(v):
                raise ValidationError("[%s] %s must be finite" % (sec, k))
        bodies.append(BodyConfig(C=C, a=a, **given))
    A = _take_number(raw, "system", "A")
    if "A" in EXAMPLES[example].params:
        if A is None:
            raise ValidationError("bending requires [system] A")
        if not (math.isfinite(A) and A > 0.0):
            raise ValidationError("[system] A must be positive")
        if bodies[0].b is None:
            raise ValidationError("bending requires [body1] b")
    elif A is not None:
        raise ValidationError("[system] A only applies to the bending example")
    d_allow = _take_number(raw, "contact", "d_allow", ProblemConfig.d_allow)
    g = _take_number(raw, "contact", "g", ProblemConfig.g)
    if not (math.isfinite(d_allow) and d_allow >= 0.0):
        raise ValidationError("[contact] d_allow must be >= 0")
    if not (math.isfinite(g) and g >= 0.0):
        raise ValidationError("[contact] g must be >= 0")
    if "g" in EXAMPLES[example].params and g <= 0.0:
        raise ValidationError("cohesive example requires [contact] g > 0")
    if "g" not in EXAMPLES[example].params and g > 0.0:
        raise ValidationError("[contact] g only applies to the cohesive example")
    tau = _take_number(raw, "load", "tau")
    if tau is not None and not math.isfinite(tau):
        raise ValidationError("[load] tau must be finite")
    numerics = {
        k: _take_number(raw, "numerics", k, getattr(ProblemConfig, k), int)
        for k in SECTIONS["numerics"]
    }
    if not 1 <= numerics["quad_order"] <= 64:
        raise ValidationError("[numerics] quad_order must be in [1, 64]")
    # the upper bounds keep the oracle's load grid and the criteria's
    # probe arrays (9 floats per probe) to a few megabytes
    if not 2 <= numerics["grid_n"] <= 1_000_000:
        raise ValidationError("[numerics] grid_n must be in [2, 1000000]")
    if not 1 <= numerics["probe_count"] <= 100_000:
        raise ValidationError("[numerics] probe_count must be in [1, 100000]")
    if numerics["seed"] < 0:
        raise ValidationError("[numerics] seed must be >= 0")
    return ProblemConfig(
        example, bodies[0], bodies[1], A=A, d_allow=d_allow, g=g, tau=tau, **numerics
    )


def build_system(config):
    """Materialize the configured SystemSpec through its family's constructor.

    The constructor takes the fixed parameters and the state's extras.
    Offsets and pressures the config leaves unset take the constructor's
    defaults: the gap-closing offset and the equilibrium pressure.
    """
    c1, c2 = config.body1, config.body2
    kw = dict(b1=c1.b, b2=c2.b, p1=c1.pressure, p2=c2.pressure, g=config.g, tau=config.tau)
    kw.update(_fixed_params(config), d_allow=config.d_allow)
    return EXAMPLES[config.example].build(**{k: v for k, v in kw.items() if v is not None})


def _fixed_params(config, **override):
    # the closed form's keyword arguments, each override replacing one; an
    # unset bending b2 is derived after them, following a1, b1 and a2
    c1, c2 = config.body1, config.body2
    params = EXAMPLES[config.example].params
    given = {"g": config.g, "A": config.A, "b1": c1.b, "b2": c2.b}
    fp = {"C1": c1.C, "C2": c2.C, "a1": c1.a, "a2": c2.a}
    fp.update((k, given[k]) for k in params)
    fp.update(override)
    if "b2" in params and fp["b2"] is None:
        fp["b2"] = bending_b2(fp["a1"], fp["b1"], fp["a2"])
    return fp


def _agreement(config, closed, numeric, oracle):
    """Compare the numeric and oracle intervals with a non-empty closed form.

    Bisection must land within max(1e-6, 1e-14 max(|lo|, |hi|)) of both
    endpoints, the oracle within two steps of its load grid. Returns
    (numeric_ok, oracle_ok, detail); without a numeric interval
    numeric_ok is false and detail None.
    """
    b_lo, b_hi = search_bracket(config.example, _fixed_params(config))
    res = (b_hi - b_lo) / config.grid_n
    lo, hi = closed.tau_lo, closed.tau_hi
    d_orc = max(abs(oracle.tau_lo - lo), abs(oracle.tau_hi - hi))
    oracle_ok = oracle.regime == "closed" and d_orc <= 2.0 * res
    if numeric is None:
        return False, oracle_ok, None
    d_num = max(abs(numeric.tau_lo - lo), abs(numeric.tau_hi - hi))
    detail = "numeric gap %.3e, oracle gap %.3e (res %.3e)" % (d_num, d_orc, res)
    return d_num <= max(1e-6, 1e-14 * max(abs(lo), abs(hi))), oracle_ok, detail


def run(config):
    """Full pipeline for one config; returns a RunReport."""
    warnings = []
    system = build_system(config)
    for body in (system.body1, system.body2):
        if not injectivity_check(body.map, body.domain):
            raise ValidationError("deformation map fails the injectivity test")
    kin = check_kinematic(system)
    if config.tau is not None:
        tau_check = config.tau
    else:
        # no load given: check the state against the load it actually
        # exerts on the outer face of body 1
        tau_check = nominal_traction(system.body1, system.body1.domain.x_lo)
    stat = check_static(system, tau_check)
    cev = evaluate_contact(system)
    if cev.regime == "open":
        warnings.append(W_OPEN_CONTACT)
    enc = None
    if config.tau is not None:
        # a built system holds its own data: kin and stat are enclosure's checks
        try:
            enc = _enclose(system, system, config.tau, kin, stat)
        except InadmissibleTrial as e:
            warnings.append(W_ENCLOSURE_SKIPPED % e)
    crit = (
        criteria_check(system.body1, config.probe_count, config.seed),
        criteria_check(system.body2, config.probe_count, config.seed),
    )
    fp = _fixed_params(config)
    closed = EXAMPLES[config.example].closed_form(**fp)
    numeric = None
    try:
        numeric = numeric_load_bounds(config.example, fp)
    except InfeasibleProblem as e:
        warnings.append(W_EMPTY % e)
    oracle = brute_force_oracle(config.example, fp, config.grid_n)
    if not closed.empty:
        numeric_ok, oracle_ok, _ = _agreement(config, closed, numeric, oracle)
        if numeric is not None and not numeric_ok:
            warnings.append(W_MISMATCH % "numeric endpoints off the closed form")
        if not oracle_ok:
            warnings.append(W_MISMATCH % "oracle endpoints off the closed form")
    else:
        if numeric is not None:
            warnings.append(W_MISMATCH % "closed form empty but bisection found loads")
        if oracle.regime == "closed" and not oracle.empty:
            warnings.append(W_MISMATCH % "closed form empty but oracle accepts loads")
    if abs(config.body1.a - 1.0) < 1e-12 or abs(config.body2.a - 1.0) < 1e-12:
        warnings.append(W_DEGENERATE)
    warnings.extend(EXAMPLES[config.example].notes)
    return RunReport(
        config=config,
        kinematic=kin,
        static=stat,
        contact=cev,
        enclosure=enc,
        closed_form=closed,
        numeric=numeric,
        oracle=oracle,
        criteria=crit,
        warnings=tuple(warnings),
    )


def _f(v):
    return "%.12g" % v


def _interval_line(name, iv):
    if iv is None:
        return "%s: unavailable" % name
    return "%s: tau_lo=%s tau_hi=%s regime=%s empty=%s" % (
        name,
        _f(iv.tau_lo),
        _f(iv.tau_hi),
        iv.regime,
        "true" if iv.empty else "false",
    )


def format_report(report):
    """Plain-text report; identical bytes for identical runs."""
    cfg = report.config
    out = ["run: example=%s" % cfg.example]
    out.append(
        "load: tau=%s" % (_f(cfg.tau) if cfg.tau is not None else "none")
    )
    for name in ("kinematic", "static"):
        adm = getattr(report, name)
        ok = "yes" if getattr(adm, name + "_ok") else "no"
        residuals = " ".join("%s=%s" % (k, _f(v)) for k, v in adm.residuals.items())
        out.append("%s: ok=%s %s" % (name, ok, residuals))
    c = report.contact
    out.append(
        "contact: regime=%s gap=%s traction=%s complementarity=%s action_reaction=%s"
        % (
            c.regime,
            _f(c.gap),
            _f(c.traction_normal),
            _f(c.complementarity_residual),
            _f(c.action_reaction_residual),
        )
    )
    if report.enclosure is not None:
        e = report.enclosure
        out.append(
            "enclosure: e_potential=%s e_complementary=%s gap=%s"
            % (_f(e.e_potential), _f(e.e_complementary), _f(e.gap))
        )
    else:
        out.append("enclosure: unavailable")
    for i, cr in enumerate(report.criteria, start=1):
        out.append(
            "criteria body%d: primal=%s complementary=%s min_q=%s window=(%s, %s)"
            % (
                i,
                "ok" if cr.primal_ok else "violated",
                "ok" if cr.complementary_ok else "violated",
                _f(cr.min_quadratic_value),
                _f(cr.pressure_window[0]),
                _f(cr.pressure_window[1]),
            )
        )
    out.append(_interval_line("closed_form", report.closed_form))
    out.append(_interval_line("numeric", report.numeric))
    out.append(_interval_line("oracle", report.oracle))
    if report.warnings:
        out.append("warnings:")
        for w in report.warnings:
            out.append("- %s" % w)
    else:
        out.append("warnings: none")
    return "\n".join(out) + "\n"


def _csv_row(label, iv):
    empty = "true" if iv.empty else "false"
    return "%s,%s,%s,%s,%s" % (label, _f(iv.tau_lo), _f(iv.tau_hi), empty, iv.regime)


def format_csv(report):
    rows = ["source,tau_lo,tau_hi,empty,regime"]
    for name in ("closed_form", "numeric", "oracle"):
        iv = getattr(report, name)
        rows.append("%s,,,," % name if iv is None else _csv_row(name, iv))
    return "\n".join(rows) + "\n"


def _jsonish(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = dataclasses.fields(value)
        inner = ", ".join(
            '"%s": %s' % (f.name, _jsonish(getattr(value, f.name))) for f in fields
        )
        return "{%s}" % inner
    if isinstance(value, dict):
        inner = ", ".join('"%s": %s' % (k, _jsonish(v)) for k, v in value.items())
        return "{%s}" % inner
    if isinstance(value, (list, tuple)):
        return "[%s]" % ", ".join(_jsonish(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        return _f(value)
    if isinstance(value, int):
        return "%d" % value
    return '"%s"' % value


def format_jsonish(report):
    return _jsonish(report) + "\n"


FORMATS = {"report": format_report, "csv": format_csv, "json-like": format_jsonish}


def sweep(config, param, lo, hi, steps):
    """Closed-form interval as one parameter varies; CSV text."""
    if param not in SWEEP_PARAMS:
        raise ValidationError(
            "sweep parameter must be one of %s" % ", ".join(SWEEP_PARAMS)
        )
    if param not in _fixed_params(config):
        raise ValidationError(
            "sweep parameter %s does not enter the %s example" % (param, config.example)
        )
    if not (isinstance(steps, int) and steps >= 2):
        raise ValidationError("sweep needs at least 2 steps")
    if steps > MAX_SWEEP_STEPS:
        raise ValidationError("sweep takes at most %d steps" % MAX_SWEEP_STEPS)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValidationError("sweep range must be finite with lo < hi")
    rows = ["param,tau_lo,tau_hi,empty,regime,error"]
    for v in np.linspace(lo, hi, steps):
        fp = _fixed_params(config, **{param: float(v)})
        try:
            rows.append(_csv_row(_f(v), EXAMPLES[config.example].closed_form(**fp)) + ",")
        except (ContactBoundsError, ArithmeticError) as e:
            rows.append('%s,,,,,"%s"' % (_f(v), e))
    return "\n".join(rows) + "\n"


#: the central difference step of verify's stress derivative check
FD_STEP = 1e-6


@functools.lru_cache(maxsize=None)
def _fixed_draws():
    # verify's draws from default_rng(0), which no config changes: the 20
    # matrices of the adjugate identity, then the stress derivative's five
    # passes, each drawing its stretches, rotation, pressure and direction
    # in turn, with |M|^2 and det M of M = F + hG and F - hG. Built on the
    # first verify(), never at import, and shared read-only
    rng = np.random.default_rng(0)
    ms = rng.standard_normal((20, 3, 3))
    F, Q, p, G = [], [], [], []
    for _ in range(5):
        lam = np.exp(rng.uniform(-0.3, 0.3, 2))
        F.append(np.diag([lam[0], lam[1], 1.0 / (lam[0] * lam[1])]))
        Q.append(rng.standard_normal((3, 3)))
        p.append(rng.uniform(-0.5, 0.5))
        g = rng.standard_normal((3, 3))
        G.append(g / np.linalg.norm(g))
    p, G = np.array(p), np.array(G)
    Q = np.linalg.qr(np.array(Q))[0]
    Q[np.linalg.det(Q) < 0.0, :, 0] *= -1.0
    F = Q @ np.array(F)
    steps = (F + FD_STEP * G, F - FD_STEP * G)
    plus, minus = [(tensor3.ddot(M, M), np.linalg.det(M)) for M in steps]
    for v in (ms, F, p, G) + plus + minus:
        v.setflags(write=False)
    return ms, F, p, G, plus, minus


def _isochory(bodies):
    # max |J - 1| at 7 abscissae across each body (x_lo alone where J does not
    # vary with x), one stack per body, left to right so that a NaN is never
    # taken; jacobian raises at the first abscissa whose J is not positive
    worst = 0.0
    for body in bodies:
        xs = contact._abscissae(body, 7)
        J = np.ravel(tensor3.det(body.map.gradient(xs)))
        if (J <= 0.0).any():
            jacobian(body.map, (np.ravel(xs)[np.argmax(J <= 0.0)], 0.5, 0.5))
        worst = contact._running_max(worst, np.abs(J - 1.0))
    return worst


def verify(config):
    """Built-in consistency battery; returns (exit_code, report_text)."""
    lines = []
    failures = 0

    def check(name, ok, detail):
        nonlocal failures
        if not ok:
            failures += 1
        lines.append("%s %s: %s" % ("PASS" if ok else "FAIL", name, detail))

    ms, F, p, G, plus, minus = _fixed_draws()
    # the adjugate identity cof(m)^T m = det(m) I of the algebra behind the
    # stresses and criteria, singular draws included
    adj = tensor3.cofactor(ms).swapaxes(-2, -1) @ ms - tensor3.det(ms)[:, None, None] * np.eye(3)
    worst_adj = float(np.max(np.abs(adj)))
    check("tensor identities", worst_adj < 1e-12, "adjugate residual %.3e" % worst_adj)

    system = build_system(config)
    worst_j = _isochory((system.body1, system.body2))
    check("isochoric maps", worst_j < 1e-12, "|J - 1| max %.3e" % worst_j)
    # run(config) below raises ValidationError on a map that fails the test,
    # so a report exists only when both bodies pass it
    check("injectivity", True, "volume test on both bodies")

    # the exact energy against the Gauss sum of twice the configured order
    fine = QuadratureRule(min(2 * config.quad_order, 64))
    tau = config.tau if config.tau is not None else -0.25 * config.body1.C
    ep1 = potential_energy(system, tau)
    ep2 = potential_energy(system, tau, fine)
    check(
        "quadrature convergence",
        abs(ep1 - ep2) < 1e-9 * max(1.0, abs(ep1)),
        "exact vs order %d: delta %.3e" % (fine.order, abs(ep1 - ep2)),
    )

    # the central difference of the augmented energy against P : G, as one
    # stack of the five draws
    model = NeoHookeanIncompressible(config.body1.C)
    P = piola_stress(model, F, p)

    def aug(dd, J):
        return 0.5 * model.C * (dd - 3.0) - p * (J - 1.0)

    fd = (aug(*plus) - aug(*minus)) / (2.0 * FD_STEP)
    gaps = np.abs(fd - tensor3.ddot(P, G)) / np.maximum(1.0, np.abs(fd))
    worst_fd = contact._running_max(0.0, gaps)
    check("stress derivative", worst_fd < 1e-6, "max relative gap %.3e" % worst_fd)

    report = run(config)
    closed, numeric = report.closed_form, report.numeric
    if closed.empty:
        ok_iv = numeric is None
        detail = (
            "closed form empty, bisection agrees"
            if ok_iv
            else "closed form empty but bisection found loads"
        )
    else:
        oracle = report.oracle
        numeric_ok, oracle_ok, detail = _agreement(config, closed, numeric, oracle)
        ok_iv = numeric_ok and oracle_ok
        if numeric is None:  # the bisection's reason, as run() warned it
            prefix = W_EMPTY % ""
            detail = next(
                w[len(prefix):] for w in report.warnings if w.startswith(prefix)
            )
    check("interval consistency", ok_iv, detail)

    # criteria_check(...).complementary_ok of body 1 under a constant
    # pressure just past and just inside each edge of its window
    window = pressure_window(system.body1)[1]
    edges = [k * window for k in (1.02, 0.98, -1.02, -0.98)]
    edge_min = _edge_minima(system.body1, _probe_forms(50, config.seed), edges)
    ok_flip = [m > 0.0 for m in edge_min] == [False, True, False, True]
    check("window flip", ok_flip, "edges +/-%s bracket the flip" % _f(window))

    ex = EXAMPLES[config.example]
    tau_ref, exact = ex.reference(config)
    # enclosure(exact, exact, ...); the trials below pair with the same
    # static side, so they reuse its admitted report and energy
    data = _resolved_data(exact)
    kin = check_kinematic(exact, dirichlet=data)
    stat = check_static(exact, tau_ref) if kin.kinematic_ok else None
    enc = _enclose(exact, exact, tau_ref, kin, stat)
    check(
        "energy equality",
        abs(enc.gap) < 1e-8,
        "duality gap %.3e at tau=%s" % (abs(enc.gap), _f(tau_ref)),
    )

    worst_gap = 0.0
    for delta in (0.01, 0.03, 0.08):
        trial_body = dataclasses.replace(exact.body1, map=ex.trial(exact, delta))
        trial = dataclasses.replace(exact, body1=trial_body)
        kin = check_kinematic(trial, dirichlet=data)
        e = _enclose(trial, exact, tau_ref, kin, stat, enc.e_complementary)
        worst_gap = min(worst_gap, e.gap)
    check(
        "enclosure",
        worst_gap >= -1e-9,
        "smallest duality gap over trials %.3e" % worst_gap,
    )

    same = format_report(report) == format_report(run(config))
    check("determinism", same, "report bytes on repeated runs")

    code = 0 if failures == 0 else 1
    header = "verify: %d checks, %d failed" % (len(lines), failures)
    return code, header + "\n" + "\n".join(lines) + "\n"


def _emit(text, output):
    if not output:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise ValidationError("cannot write --output: %s" % e) from None


def main(argv=None):
    parser = argparse.ArgumentParser(prog="contactbounds")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--output")
        if name == "run":
            p.add_argument(
                "--format", choices=sorted(FORMATS), default="report"
            )
        if name == "sweep":
            p.add_argument("--param", required=True)
            p.add_argument(
                "--range",
                required=True,
                help="lo:hi:steps",
                dest="sweep_range",
            )
    args = parser.parse_args(argv)
    try:
        with open(args.config, encoding="utf-8-sig") as fh:  # a leading BOM is no key
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 2
    try:
        # an overflow ends in a failed check or in one of the errors below;
        # numpy's warnings about it would only add lines to stderr
        with np.errstate(all="ignore"):
            config = parse_config(text)
            if args.command == "run":
                report = run(config)
                _emit(FORMATS[args.format](report), args.output)
                return 0
            if args.command == "sweep":
                parts = args.sweep_range.split(":")
                if len(parts) != 3:
                    raise ValidationError("--range must be lo:hi:steps")
                try:
                    lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
                except ValueError:
                    raise ValidationError("--range must be lo:hi:steps") from None
                _emit(sweep(config, args.param, lo, hi, steps), args.output)
                return 0
            code, text = verify(config)
            _emit(text, args.output)
            return code
    except (ParseError, ValidationError, InvalidParameters, FamilyMismatch) as e:
        sys.stderr.write("error: %s\n" % e)
        return 2
    except (ContactBoundsError, ArithmeticError) as e:
        sys.stderr.write("numerical failure: %s\n" % e)
        return 3


if __name__ == "__main__":
    sys.exit(main())
