"""One workload run: a closed loop with one client, sequential.

Started by run.py in a fresh interpreter with BLAS threads pinned to 1.
Prints one JSON line with the raw samples; run.py turns them into
metrics. With --trace the first half of the time runs untraced and the
second half traced, so the two rates give the tracing overhead.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

import checks
import reference
import tracer
import workloads

#: every latency series gets at least this many samples, so that a
#: percentile with ten samples beyond it exists and is not the minimum;
#: a 30 s run reaches it by time alone, a slower machine may not
MIN_SAMPLES = 13
CLI_TIMEOUT_S = 60
HERE = os.path.dirname(os.path.abspath(__file__))


def _expects_enclosure(kind):
    # bending loads keep the interface closed; stretch loads say eq/off
    return kind == "bending" or kind.endswith("-eq")


class Phase:
    """Samples of one timed phase, each bracketed by reference-kernel times.

    samples holds [config index, run_s, verify_s, config_s] per config that
    completed (None where a step does not apply); refs[i] is the kernel
    time just before config i, and refs[-1] the one after the last.
    """

    def __init__(self, seconds, min_samples):
        self.seconds, self.min_samples = seconds, min_samples
        self.samples, self.refs = [], [reference.kernel_seconds()]
        self.start = time.perf_counter()

    def more(self):
        # past the time limit, go on only until the run series has its
        # minimum, and give up on that after three times as many configs
        if time.perf_counter() - self.start < self.seconds:
            return True
        runs = sum(1 for s in self.samples if s[1] is not None)
        return runs < self.min_samples and self.configs < 3 * self.min_samples

    @property
    def configs(self):
        return len(self.refs) - 1

    def add(self, run_s, verify_s, config_s):
        self.samples.append([self.configs, run_s, verify_s, config_s])

    def next_config(self):
        self.refs.append(reference.kernel_seconds())

    def result(self):
        return {"samples": self.samples, "refs": self.refs}


def pipeline_phase(items, phase, failures):
    """Take configs through parse -> run -> format -> verify until time is up."""
    from contactbounds import cli

    clock = time.perf_counter
    while phase.more():
        kind, text = next(items)
        params = checks.config_params(text)
        t0 = clock()
        try:
            config = cli.parse_config(text)
            t1 = clock()
            report = cli.run(config)
            t2 = clock()
            report_text = cli.format_report(report)
            t3 = clock()
            code, _ = cli.verify(config)
            t4 = clock()
        except Exception as e:  # a raise is a failed config, never a crash of the run
            failures.append({"config": text, "kind": kind,
                             "errors": ["raised %s: %s" % (type(e).__name__, e)]})
            phase.next_config()
            continue
        phase.add(t2 - t1, t4 - t3, t4 - t0)
        errors = checks.check_run_report(params, report_text, _expects_enclosure(kind))
        if code != 0:
            errors.append("verify: exit code %d" % code)
        if errors:
            failures.append({"config": text, "kind": kind, "errors": errors})
        phase.next_config()


def cli_phase(items, phase, failures, workdir, stats_dir=None):
    """Spawn one fresh CLI process per generated config until time is up.

    With stats_dir each process runs under tracer.py and leaves its span
    totals there.
    """
    clock = time.perf_counter
    while phase.more():
        kind, text, args = next(items)
        path = os.path.join(workdir, "case%d.cfg" % phase.configs)
        with open(path, "w") as fh:
            fh.write(text)
        argv = [args[0], "--config", path] + list(args[1:])
        if stats_dir is None:
            cmd = [sys.executable, "-m", "contactbounds.cli"] + argv
        else:
            stats = os.path.join(stats_dir, "stats%d.json" % phase.configs)
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), stats, "--"] + argv
        t0 = clock()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            failures.append({"config": text, "kind": kind,
                             "errors": ["cli %s: no exit within %d s" % (args[0], CLI_TIMEOUT_S)]})
            phase.next_config()
            continue
        dt = clock() - t0
        phase.add(dt if args[0] == "run" else None, None, dt)
        errors = checks.check_cli_output(checks.config_params(text), args,
                                         proc.returncode, proc.stdout, proc.stderr)
        if errors:
            failures.append({"config": text, "kind": kind, "errors": errors})
        phase.next_config()


def _warm_up(workload, seed):
    # one untimed run() lets lazy imports and caches settle before timing;
    # cli_cold children start cold by design
    if workload != "cli_cold":
        from contactbounds import cli

        cli.run(cli.parse_config(next(workloads.stream(workload, seed))[1]))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    used = []

    def recording():
        for item in workloads.stream(args.workload, args.seed):
            used.append(item[1])
            yield item

    items = recording()
    cli_loop = args.workload == "cli_cold"

    def timed(seconds, min_samples, stats_dir=None):
        phase = Phase(seconds, min_samples)
        if cli_loop:
            cli_phase(items, phase, failures, args.workdir, stats_dir)
        else:
            pipeline_phase(items, phase, failures)
        return phase

    _warm_up(args.workload, args.seed)
    reference.kernel_seconds()
    failures = []
    # a traced run reports no latencies, so it needs no minimum sample count
    seconds = args.seconds / 2 if args.trace else args.seconds
    phase = timed(seconds, 0 if args.trace else MIN_SAMPLES)
    who = resource.RUSAGE_CHILDREN if cli_loop else resource.RUSAGE_SELF
    out = dict(phase.result(), failures=failures, configs=phase.configs,
               peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0)

    if args.trace:
        if cli_loop:
            stats_dir = tempfile.mkdtemp(dir=args.workdir)
            tphase = timed(seconds, 0, stats_dir)
            snaps = []
            for name in sorted(os.listdir(stats_dir)):
                with open(os.path.join(stats_dir, name)) as fh:
                    snaps.append(json.load(fh))
            snap = tracer.merge(snaps)
            # processes from spawn to exit: start-up and import land in other
            wall = sum(s[3] for s in tphase.samples)
        else:
            spans = tracer.Tracer().install()
            t0 = time.perf_counter()
            try:
                tphase = timed(seconds, 0)
            finally:
                wall = time.perf_counter() - t0
                spans.uninstall()
            snap = spans.snapshot()
        out["trace"] = dict(tphase.result(), snapshot=snap, wall_s=wall, configs=tphase.configs)

    out["inputs"] = {"used": len(used), "digest": workloads.digest(used)}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
