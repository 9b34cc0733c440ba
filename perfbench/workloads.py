"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of its seed and produces config text
only; nothing here imports the package under test. Loads that must be in
equilibrium are computed from the benchmark's own formulas, so the
program never supplies the inputs it is then checked against.

The structure of each stream (which example, whether the load is in
equilibrium, which CLI subcommand) follows a fixed cycle; the seed draws
the continuous parameters. A fixed cycle keeps the share of each case
the same in every run, so medians do not jump between cases from one
seed to the next.
"""

import hashlib
import math
import random

WORKLOADS = ("bend_pipeline", "stretch_pipeline", "cli_cold")

#: stretch_pipeline cycle: (example, load is the equilibrium load).
#: Three of five configs reach energy.enclosure, two are refused.
STRETCH_CYCLE = (
    ("compression", True),
    ("cohesive", False),
    ("cohesive", True),
    ("compression", False),
    ("compression", True),
)

#: cli_cold cycle: (example, CLI arguments after the config path)
SWEEP_ARGS = ("sweep", "--param", "a1", "--range", "0.6:0.95:8")
CLI_CYCLE = (
    ("compression", ("run", "--format", "report")),
    ("cohesive", ("run", "--format", "csv")),
    ("compression", ("run", "--format", "json-like")),
    ("cohesive", SWEEP_ARGS),
)


def stretch_from_load(C, tau):
    """Unique positive root of a^3 - (tau/C) a^2 - 1 = 0.

    This is the axial stretch whose free triaxial state carries the
    nominal load tau = C (a - 1/a^2). The cubic has exactly one positive
    root for any real tau/C; f(0) = -1 < 0 and f(max(1, k + 1)) >= 0
    bracket it.
    """
    k = tau / C

    def f(a):
        return a * a * a - k * a * a - 1.0

    lo, hi = 0.0, max(1.0, k + 1.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi if abs(f(hi)) <= abs(f(lo)) else lo


def rivlin_sigma_rr(C, A, a, rho0, sigma0, rho):
    """Cauchy radial stress of a bent block at squared radius rho.

    Integrates d(sigma_rr)/dr = C (A^2 r / a - a^2 / r^3) exactly from
    the inner face (squared radius rho0, stress sigma0): Rivlin's
    flexure solution.
    """
    return sigma0 + C * (
        A * A * (rho - rho0) / (2.0 * a) + a * a * (1.0 / rho - 1.0 / rho0) / 2.0
    )


def _fmt(section_items):
    out = []
    for section, items in section_items:
        out.append("[%s]" % section)
        for key, val in items:
            out.append("%s = %s" % (key, val if isinstance(val, str) else repr(val)))
    return "\n".join(out) + "\n"


def stretch_config(rng, example, equilibrium, with_load=True):
    """Compression or cohesive config.

    With an equilibrium load both stretches carry tau exactly, so the
    state is statically admissible and run() computes the enclosure.
    Otherwise the load is off the one the state exerts by 10-40 %, and
    the enclosure is refused. Without a load the stretches are drawn
    freely and run() skips the enclosure.
    """
    C1, C2 = rng.uniform(0.8, 2.0), rng.uniform(0.8, 2.0)
    tau_eq = -rng.uniform(0.1, 0.4) * min(C1, C2)
    if with_load:
        a1, a2 = stretch_from_load(C1, tau_eq), stretch_from_load(C2, tau_eq)
    else:
        a1, a2 = rng.uniform(0.6, 0.95), rng.uniform(0.6, 0.95)
    sections = [
        ("system", [("example", example)]),
        ("body1", [("C", C1), ("a", a1)]),
        ("body2", [("C", C2), ("a", a2)]),
    ]
    if example == "cohesive":
        sections.append(("contact", [("g", rng.uniform(0.2, 0.8) * min(C1, C2))]))
    if with_load:
        tau = tau_eq if equilibrium else tau_eq * rng.uniform(1.1, 1.4)
        sections.append(("load", [("tau", tau)]))
    return _fmt(sections)


#: criteria probes per station in bending configs. The default, 200,
#: makes a config take about 3 s, so a 30 s run would hold only 11 to 13
#: of them and its tail latency would be one of its fastest samples; at
#: 50 a run holds about 20 and criteria checks stay the largest share.
BEND_PROBES = 50


def bend_config(rng):
    """Bending config whose dead load keeps the interface in compression.

    The load is chosen from the exact radial stress so that sigma_rr at
    the contact radius is -delta C1 with delta in [0.05, 0.3]; the
    equilibrium profile then passes the static check and run() computes
    the enclosure.
    """
    C1, C2 = rng.uniform(0.8, 2.0), rng.uniform(0.8, 2.0)
    A = rng.uniform(0.9, 1.1)
    a1, a2 = rng.uniform(0.9, 1.1), rng.uniform(0.9, 1.1)
    b1 = rng.uniform(1.6, 3.0)
    delta = rng.uniform(0.05, 0.3)
    rho_c = a1 + b1
    # sigma_rr(rho_c) = -delta C1 fixes the inner-face stress sigma0,
    # and the nominal dead load is sigma0 r0 / a1
    sigma0 = -delta * C1 - rivlin_sigma_rr(C1, A, a1, b1, 0.0, rho_c)
    tau = sigma0 * math.sqrt(b1) / a1
    return _fmt(
        [
            ("system", [("example", "bending"), ("A", A)]),
            ("body1", [("C", C1), ("a", a1), ("b", b1)]),
            ("body2", [("C", C2), ("a", a2)]),
            ("load", [("tau", tau)]),
            ("numerics", [("probe_count", BEND_PROBES)]),
        ]
    )


def stream(workload, seed):
    """Endless deterministic stream of inputs for a workload.

    Pipelines yield (kind, config_text); cli_cold yields
    (kind, config_text, cli_args).
    """
    rng = random.Random("%s:%d" % (workload, seed))
    i = 0
    while True:
        if workload == "bend_pipeline":
            yield "bending", bend_config(rng)
        elif workload == "stretch_pipeline":
            example, eq = STRETCH_CYCLE[i % len(STRETCH_CYCLE)]
            kind = "%s-%s" % (example, "eq" if eq else "off")
            yield kind, stretch_config(rng, example, eq)
        elif workload == "cli_cold":
            example, args = CLI_CYCLE[i % len(CLI_CYCLE)]
            yield "%s-%s" % (example, args[0]), stretch_config(
                rng, example, False, with_load=False
            ), args
        else:
            raise ValueError("unknown workload %r" % (workload,))
        i += 1


def digest(texts):
    """Short SHA-256 over a sequence of config texts."""
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def prefix_digest(workload, seed, n=64):
    """Digest of the first n generated configs: equal seeds, equal digest."""
    gen = stream(workload, seed)
    return digest(next(gen)[1] for _ in range(n))
