"""Correctness checks written from the paper's formulas.

Nothing here imports the package under test: the closed-form load
intervals are recomputed from the per-family formulas, and CLI output is
parsed as text. Each check returns a list of failure messages; an empty
list means the output passed.
"""

import json
import math

#: relative tolerance for endpoints read back from %.12g text
TEXT_RTOL = 1e-10
#: absolute floor for endpoints that are exactly zero
TEXT_ATOL = 1e-12
#: an energy enclosure may undershoot by at most this much
ENCLOSURE_GAP_MIN = -1e-9
MISMATCH = "closed-form/numeric/oracle mismatch"


def _stretch_lo(C1, C2, a1, a2):
    return -min(C1 * (math.sqrt(a1) - a1 * a1), C2 * (math.sqrt(a2) - a2 * a2))


def closed_form(params):
    """(tau_lo, tau_hi) of the closed regime, from the paper's formulas.

    params holds example, C1, C2, a1, a2 and, per example, g (cohesive)
    or A, b1 (bending; body 2's offset closes the contact gap).
    """
    ex = params["example"]
    C1, C2, a1, a2 = params["C1"], params["C2"], params["a1"], params["a2"]
    if ex == "compression":
        return _stretch_lo(C1, C2, a1, a2), 0.0
    if ex == "cohesive":
        hi = min(
            params["g"],
            C1 * (math.sqrt(a1) + a1 * a1),
            C2 * (math.sqrt(a2) + a2 * a2),
        )
        return _stretch_lo(C1, C2, a1, a2), hi
    if ex == "bending":
        A, b1 = params["A"], params["b1"]
        rho_c = a1 + b1
        r0, r1 = math.sqrt(b1), math.sqrt(rho_c)
        r2 = math.sqrt(a2 + rho_c)
        # largest principal stretch over each body: radial at the inner
        # face, hoop at the outer face, or axial
        lmax1 = max(a1 / r0, A * r1 / math.sqrt(a1), 1.0 / (A * math.sqrt(a1)))
        lmax2 = max(a2 / r1, A * r2 / math.sqrt(a2), 1.0 / (A * math.sqrt(a2)))
        lo = -min(C1 / lmax1 - C1 * a1 * a1 / rho_c, C2 / lmax2 - C2 * a2 * a2 / rho_c)
        return lo, 0.0
    raise ValueError("unknown example %r" % (ex,))


def config_params(text):
    """Read example and body parameters back from generated config text."""
    section, out = None, {}
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line[1:-1]
            continue
        if not line:
            continue
        key, _, val = (s.strip() for s in line.partition("="))
        if key == "example":
            out["example"] = val
            continue
        if section in ("body1", "body2") and key in ("C", "a", "b"):
            key += section[-1]
        out[key] = float(val)
    return out


def _close(got, want):
    return abs(got - want) <= TEXT_ATOL + TEXT_RTOL * abs(want)


def check_endpoints(where, got, want):
    if _close(got[0], want[0]) and _close(got[1], want[1]):
        return []
    return ["%s: closed form (%r, %r), paper formula gives (%r, %r)"
            % (where, got[0], got[1], want[0], want[1])]


def check_run_report(params, report_text, expect_enclosure):
    """Checks on the format_report() text of one in-process run()."""
    lines = report_text.splitlines()
    try:
        kv = _kv(next(l for l in lines if l.startswith("closed_form:")))
        got = float(kv["tau_lo"]), float(kv["tau_hi"])
        enc = next(l for l in lines if l.startswith("enclosure:"))
        gap = None if enc == "enclosure: unavailable" else float(_kv(enc)["gap"])
    except (StopIteration, KeyError, ValueError) as e:
        return ["run: unparseable report (%s: %s)" % (type(e).__name__, e)]
    fails = check_endpoints("run", got, closed_form(params))
    if MISMATCH in report_text:
        fails.append("run: report carries a %s warning" % MISMATCH)
    if gap is not None and not gap >= ENCLOSURE_GAP_MIN:
        fails.append("run: enclosure gap %r below %g" % (gap, ENCLOSURE_GAP_MIN))
    if (gap is not None) != expect_enclosure:
        fails.append("run: enclosure %s, expected it %s" % (
            "computed" if gap is not None else "refused",
            "computed" if expect_enclosure else "refused"))
    return fails


def _kv(line):
    return dict(part.split("=", 1) for part in line.split() if "=" in part)


def check_cli_output(params, args, code, stdout, stderr):
    """A CLI process must exit 0 and print output that parses and agrees."""
    if code != 0:
        return ["cli %s: exit code %d: %s" % (" ".join(args), code, stderr.strip()[-200:])]
    try:
        if args[0] == "sweep":
            return _check_sweep(params, args, stdout)
        fmt = args[args.index("--format") + 1]
        if fmt == "report":
            line = next(l for l in stdout.splitlines() if l.startswith("closed_form:"))
            kv = _kv(line)
            got = float(kv["tau_lo"]), float(kv["tau_hi"])
            fails = [] if MISMATCH not in stdout else ["cli run: %s warning" % MISMATCH]
        elif fmt == "csv":
            rows = [l.split(",") for l in stdout.strip().splitlines()]
            if rows[0] != ["source", "tau_lo", "tau_hi", "empty", "regime"]:
                return ["cli csv: unexpected header %r" % (rows[0],)]
            row = next(r for r in rows if r[0] == "closed_form")
            got = float(row[1]), float(row[2])
            fails = []
        else:
            doc = json.loads(stdout)
            got = doc["closed_form"]["tau_lo"], doc["closed_form"]["tau_hi"]
            fails = [] if not any(MISMATCH in w for w in doc["warnings"]) else [
                "cli json-like: %s warning" % MISMATCH]
    except (StopIteration, KeyError, ValueError, IndexError, TypeError) as e:
        return ["cli %s: unparseable output (%s: %s)" % (args[0], type(e).__name__, e)]
    return fails + check_endpoints("cli %s" % " ".join(args), got, closed_form(params))


def _check_sweep(params, args, stdout):
    param = args[args.index("--param") + 1]
    lo, hi, steps = args[args.index("--range") + 1].split(":")
    lo, hi, steps = float(lo), float(hi), int(steps)
    rows = [l.split(",") for l in stdout.strip().splitlines()]
    if rows[0] != ["param", "tau_lo", "tau_hi", "empty", "regime", "error"]:
        return ["cli sweep: unexpected header %r" % (rows[0],)]
    if len(rows) != steps + 1:
        return ["cli sweep: %d rows for %d steps" % (len(rows) - 1, steps)]
    fails = []
    for i, row in enumerate(rows[1:]):
        v = lo + (hi - lo) * i / (steps - 1)
        if not _close(float(row[0]), v) or row[5]:
            fails.append("cli sweep: row %d reads %r" % (i, row))
            continue
        p = dict(params)
        p[param] = v
        fails += check_endpoints("cli sweep %s=%s" % (param, row[0]),
                                 (float(row[1]), float(row[2])), closed_form(p))
    return fails
