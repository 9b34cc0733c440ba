"""contactbounds benchmark: one run of one workload.

Run from the repository root:

    python3 perfbench/run.py --workload bend_pipeline --seed 1 --seconds 30 --trace 0

It prints a table of every metric with its unit, any failed config with
its text, and, as the last line, one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 gives the end-to-end metrics,
--trace 1 the per-layer ones. See perfbench/README.md.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "contactbounds")
SETUP_PROBES = 5
IMPORT_PROBES = 3
WORKER_TIMEOUT_S = 170
PROBE_TIMEOUT_S = 60
#: the setup probe imports the package and completes one run() on a
#: light config given on stdin
SETUP_CODE = (
    "import sys\n"
    "from contactbounds import cli\n"
    "cli.run(cli.parse_config(sys.stdin.read()))\n"
)

#: end-to-end metrics of the JSON line; each exists on every workload
END_TO_END = ("run_s.p50", "run_s.tail", "config_s.p50", "config_s.tail",
              "configs_per_s", "setup_s", "peak_rss_mb")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(cmd, timeout, stdin_text=None):
    """Run a child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), text=True, start_new_session=True,
        stdin=subprocess.PIPE if stdin_text is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(stdin_text, timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("%s: no exit within %d s" % (" ".join(cmd[:3]), timeout)) from None
    except BaseException:
        # interrupted or terminated: take the child's whole group down too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out, err


def median_tail(xs):
    """(p50, tail, tail percentile): tail is the highest sample with at
    least ten samples beyond it (the minimum when there are fewer)."""
    s = sorted(xs)
    k = max(len(s) - 11, 0)
    return statistics.median(s), s[k], 100.0 * (k + 1) / len(s)


def setup_seconds(seed):
    """Median (scaled, raw) wall time of fresh interpreters that import
    and warm up."""
    text = next(workloads.stream("stretch_pipeline", seed))[1]
    reference.kernel_seconds()  # the first pass runs cold
    times, refs = [], [reference.kernel_seconds()]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        code, _, err = run_child([sys.executable, "-c", SETUP_CODE], PROBE_TIMEOUT_S, text)
        times.append(time.perf_counter() - t0)
        refs.append(reference.kernel_seconds())
        if code != 0:
            raise BenchError("setup probe failed:\n" + err)
    scaled = [t * f for t, f in zip(times, reference.scales(refs))]
    return statistics.median(scaled), statistics.median(times)


def import_seconds():
    """Median -X importtime figures for a fresh `import contactbounds`.

    numpy_s and scipy_s sum the self time of every numpy.* and scipy.*
    module; contactbounds_s is the cumulative time of the whole import.
    """
    runs = []
    for _ in range(IMPORT_PROBES):
        code, _, err = run_child(
            [sys.executable, "-X", "importtime", "-c", "import contactbounds"], PROBE_TIMEOUT_S)
        if code != 0:
            raise BenchError("import probe failed:\n" + err)
        tot = {"numpy": 0, "scipy": 0, "contactbounds": 0}
        for line in err.splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            self_us, cum_us, name = line[len("import time:"):].split("|")
            name = name.strip()
            top = name.split(".", 1)[0]
            if top in ("numpy", "scipy"):
                tot[top] += int(self_us)
            elif name == "contactbounds":
                tot["contactbounds"] = int(cum_us)
        runs.append(tot)
    return {"import.%s_s" % k: statistics.median(r[k] for r in runs) / 1e6 for k in runs[0]}


def environment():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    lines = 0
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                lines += sum(1 for _ in fh)
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = "missing"
    return ("env: python %s, numpy %s, scipy %s, cpu %s, nproc %d, src/contactbounds %d lines"
            % (platform.python_version(), versions["numpy"], versions["scipy"], cpu,
               len(os.sched_getaffinity(0)), lines))


def run_worker(args, workdir):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--workdir", workdir]
    if args.trace:
        cmd.append("--trace")
    code, out, err = run_child(cmd, WORKER_TIMEOUT_S)
    if code != 0 or not out.strip():
        raise BenchError("worker exited with code %d:\n%s" % (code, err[-4000:]))
    return json.loads(out.strip().splitlines()[-1])


def latencies(phase):
    """{name: [(scaled, raw), ...]} for run_s, verify_s and config_s."""
    f = reference.scales(phase["refs"])
    out = {"run_s": [], "verify_s": [], "config_s": []}
    for i, *values in phase["samples"]:
        for name, v in zip(out, values):
            if v is not None:
                out[name].append((v * f[i], v))
    return out


def rate(series):
    """Configs per scaled second of config time (0 without configs)."""
    return len(series) / sum(scaled for scaled, _ in series) if series else 0.0


def end_to_end(res, setup):
    """Table rows (name, value, unit, note) of an untraced run."""
    cli_cold = res["workload"] == "cli_cold"
    series = latencies(res)
    rows = []
    # verify_s and cli_s exist on some workloads only: table, not JSON
    names = [("run_s", "run_s"), ("config_s", "config_s"),
             ("cli_s", "config_s") if cli_cold else ("verify_s", "verify_s")]
    for name, key in names:
        pairs = series[key]
        if not pairs:
            raise BenchError("no %s samples: every config failed" % key)
        p50, tail, pct = median_tail([scaled for scaled, _ in pairs])
        raw50, rawtail, _ = median_tail([raw for _, raw in pairs])
        rows.append((name + ".p50", p50, "s", "raw %.4g s, n=%d" % (raw50, len(pairs))))
        rows.append((name + ".tail", tail, "s",
                     "raw %.4g s, p%.1f of n=%d" % (rawtail, pct, len(pairs))))
    raw_s = sum(raw for _, raw in series["config_s"])
    rows.append(("configs_per_s", rate(series["config_s"]), "1/s",
                 "raw %.4g: %d configs in %.2f s" % (len(series["config_s"]) / raw_s,
                                                     len(series["config_s"]), raw_s)))
    rows.append(("setup_s", setup[0], "s",
                 "raw %.4g s, median of %d fresh interpreters" % (setup[1], SETUP_PROBES)))
    rows.append(("peak_rss_mb", res["peak_rss_mb"], "MB",
                 "largest CLI child" if cli_cold else "worker"))
    return rows


def per_layer(res, imports):
    """Table rows (name, value, unit, note) of a traced run."""
    tr = res["trace"]
    m = tracer.layer_metrics(tr["snapshot"], tr["wall_s"])
    traced = rate(latencies(tr)["config_s"])
    m["trace.overhead"] = rate(latencies(res)["config_s"]) / traced if traced else 0.0
    m.update(imports)
    return [(k, v, layer_unit(k), "") for k, v in m.items()]


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_eval"):
        return "ns"
    if name.endswith(("_frac", "_yield", "overhead")):
        return "ratio"
    return "count"


def print_table(rows):
    for name, value, unit, note in rows:
        print("  %-26s %16.6g %-6s %s" % (name, value, unit, note))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so children die and files go
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        sys.stderr.write("perfbench: no package source at %s\n" % PACKAGE)
        return 2
    try:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
            imports = import_seconds() if args.trace else None
            setup = None if args.trace else setup_seconds(args.seed)
            res = run_worker(args, workdir)
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 2
    res["workload"] = args.workload

    print("perfbench: workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("inputs: first 64 generated configs digest %s; used %d configs, digest %s"
          % (workloads.prefix_digest(args.workload, args.seed), res["inputs"]["used"],
             res["inputs"]["digest"]))
    print(environment())

    failures = res["failures"]
    for f in failures:
        print("FAILED %s config:\n%s  %s" % (f["kind"], f["config"], "\n  ".join(f["errors"])))
    attempted = res["configs"] + res.get("trace", {}).get("configs", 0)
    try:
        if args.trace:
            rows = per_layer(res, imports)
            reported = [r[0] for r in rows]
        else:
            rows = end_to_end(res, setup)
            rows.append(("fail_frac", len(failures) / attempted, "ratio",
                         "%d of %d failed" % (len(failures), attempted)))
            reported = END_TO_END
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 2
    print("%s metrics:" % ("per-layer (traced run)" if args.trace else "end-to-end"))
    print_table(rows)
    if args.trace:
        covered = sum(v for k, v, _, _ in rows if k.endswith(".self_s"))
        print("  self times + other = %.6g s; traced wall = %.6g s"
              % (covered, res["trace"]["wall_s"]))
        print("top functions by self time (calls, self s, inclusive s):")
        for key, calls, self_s, incl in tracer.top_functions(res["trace"]["snapshot"]):
            print("  %-44s %9d %10.4f %10.4f" % (key, calls, self_s, incl))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, v, u, _ in rows if k in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
