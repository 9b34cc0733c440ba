"""Traced runs from outside the package.

install() wraps every public module-level function of each package
module (plus RadialProfile evaluation) in a span and patches the wrapper
into the defining module, into every package module that imported the
name, and into module-level dispatch tables such as cli.FORMATS, so calls
made inside the package are seen too. Nothing under the package changes
on disk.

Spans are aggregated in memory as they close rather than stored one by
one: a bending verify opens about 10^5 of them. A span's self time is its
duration minus the durations of its direct child spans.

Run as a script, it traces one CLI process:
    python3 perfbench/tracer.py STATS_JSON -- run --config case.cfg
"""

import functools
import importlib
import json
import sys
import time
import types

MODULES = ("tensor3", "kinematics", "material", "contact", "energy", "states", "bounds", "cli")

#: named groups: time is counted once for the outermost open member span
GROUPS = {
    "criteria": ("bounds.criteria_check",),
    "interval": (
        "bounds.load_interval_compression",
        "bounds.load_interval_cohesive",
        "bounds.load_interval_bending",
        "bounds.search_bracket",
        "bounds.numeric_load_bounds",
        "bounds.brute_force_oracle",
    ),
    "radial_solve": ("contact.solve_radial_pressure",),
    "integrate": ("energy.integrate_volume", "energy.integrate_face"),
}

#: methods wrapped besides module functions: (module, class, method)
METHODS = (
    ("material", "RadialProfile", "__call__"),
    ("material", "RadialProfile", "derivative"),
)


def _quadrature_points(key, args, kwargs, default_order):
    """Quadrature nodes one integrate_* call evaluates (order^3 or order^2)."""
    if key == "energy.integrate_volume":
        rule, dim = (args[2] if len(args) > 2 else kwargs.get("rule")), 3
    else:
        rule, dim = (args[4] if len(args) > 4 else kwargs.get("rule")), 2
    order = rule.order if rule is not None else default_order
    return order**dim


class Tracer:
    def __init__(self):
        #: key -> [calls, inclusive_s, self_s, raised]
        self.stats = {}
        self.group_s = dict.fromkeys(GROUPS, 0.0)
        self.criteria_evals = 0
        self.integrand_evals = 0
        self._depth = dict.fromkeys(GROUPS, 0)
        self._stack = []
        self._patched = []

    def _wrap(self, key, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        group = next((g for g, keys in GROUPS.items() if key in keys), None)
        stack, depth, clock = self._stack, self._depth, time.perf_counter
        counts_eval = key == "material.hessian_quadratic_form"
        integrates = group == "integrate"
        default_order = getattr(sys.modules.get("contactbounds.energy"), "DEFAULT_ORDER", 8)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if counts_eval and depth["criteria"]:
                self.criteria_evals += 1
            if integrates:
                self.integrand_evals += _quadrature_points(key, args, kwargs, default_order)
            if group:
                depth[group] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat[3] += 1
                raise
            finally:
                dur = clock() - t0
                child = stack.pop()
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - child
                if stack:
                    stack[-1] += dur
                if group:
                    depth[group] -= 1
                    if not depth[group]:
                        self.group_s[group] += dur

        return span

    def install(self):
        for name in MODULES:
            importlib.import_module("contactbounds." + name)
        mods = [m for n, m in list(sys.modules.items())
                if n == "contactbounds" or n.startswith("contactbounds.")]
        wrappers = {}
        for name in MODULES:
            mod = sys.modules["contactbounds." + name]
            for attr, fn in vars(mod).items():
                if (isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(fn)] = self._wrap("%s.%s" % (name, attr), fn)
        # every binding of an original, whether module attribute or table entry
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    self._patch(mod, attr, val, wrappers[id(val)])
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if id(v) in wrappers:
                            self._patch(val, k, v, wrappers[id(v)])
        for name, cls, meth in METHODS:
            owner = getattr(sys.modules["contactbounds." + name], cls)
            fn = vars(owner)[meth]
            self._patch(owner, meth, fn, self._wrap("%s.%s.%s" % (name, cls, meth), fn))
        return self

    def _patch(self, target, attr, original, wrapper):
        if isinstance(target, dict):
            target[attr] = wrapper
        else:
            setattr(target, attr, wrapper)
        self._patched.append((target, attr, original))

    def uninstall(self):
        for target, attr, original in reversed(self._patched):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patched.clear()

    def snapshot(self):
        """JSON-ready totals; merge() adds several of them together."""
        return {
            "stats": self.stats,
            "group_s": self.group_s,
            "criteria_evals": self.criteria_evals,
            "integrand_evals": self.integrand_evals,
        }


def merge(snapshots):
    out = {"stats": {}, "group_s": dict.fromkeys(GROUPS, 0.0),
           "criteria_evals": 0, "integrand_evals": 0}
    for snap in snapshots:
        for key, vals in snap["stats"].items():
            acc = out["stats"].setdefault(key, [0, 0.0, 0.0, 0])
            for i, v in enumerate(vals):
                acc[i] += v
        for g, v in snap["group_s"].items():
            out["group_s"][g] += v
        out["criteria_evals"] += snap["criteria_evals"]
        out["integrand_evals"] += snap["integrand_evals"]
    return out


def layer_metrics(snap, wall_s):
    """Per-layer metrics from merged totals over a traced wall time.

    <module>.self_s over all modules plus other.self_s add up to wall_s.
    """
    stats = snap["stats"]
    m = {}
    covered = 0.0
    for mod in MODULES:
        rows = [v for k, v in stats.items() if k.split(".", 1)[0] == mod]
        m[mod + ".calls"] = sum(r[0] for r in rows)
        m[mod + ".self_s"] = sum(r[2] for r in rows)
        covered += m[mod + ".self_s"]
    m["other.self_s"] = wall_s - covered
    m["trace.wall_s"] = wall_s

    def row(key):
        return stats.get(key, [0, 0.0, 0.0, 0])

    g = snap["group_s"]
    m["bounds.criteria_s"] = g["criteria"]
    m["bounds.criteria_evals"] = snap["criteria_evals"]
    m["bounds.interval_s"] = g["interval"]
    nb = row("bounds.numeric_load_bounds")
    m["bounds.infeasible_frac"] = nb[3] / nb[0] if nb[0] else 0.0
    m["contact.radial_solve_s"] = g["radial_solve"]
    m["material.profile_evals"] = (row("material.RadialProfile.__call__")[0]
                                   + row("material.RadialProfile.derivative")[0])
    evals = snap["integrand_evals"]
    m["energy.integrand_evals"] = evals
    m["energy.ns_per_eval"] = 1e9 * g["integrate"] / evals if evals else 0.0
    enc = row("energy.enclosure")
    m["energy.enclosure_yield"] = (enc[0] - enc[3]) / enc[0] if enc[0] else 0.0
    return m


def top_functions(snap, n=12):
    """The n functions with the most self time: (key, calls, self_s, inclusive_s)."""
    rows = sorted(snap["stats"].items(), key=lambda kv: -kv[1][2])
    return [(k, v[0], v[2], v[1]) for k, v in rows[:n] if v[0]]


def _main(argv):
    stats_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        sys.exit("usage: tracer.py STATS_JSON -- CLI_ARGS...")
    from contactbounds import cli

    tracer = Tracer().install()
    try:
        code = cli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(stats_path, "w") as fh:
            json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
