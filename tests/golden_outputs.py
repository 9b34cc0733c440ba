"""Golden outputs of the CLI: one SHA-256 per (config, invocation).

Every config runs through `contactbounds.cli.main` for `run` in each of
its three formats, `verify`, and a sweep of each of the eight sweep
parameters. Each invocation's exit code, stdout and stderr are hashed
together. The script prints one line per output,

    <config> <invocation> <hash>

then the number of outputs and the total digest over all lines. Two trees
give the same total digest exactly when every output byte is the same.

The configs are the benchmark's seeded configs (perfbench/workloads.py,
imported read-only), the `*_CFG` configs of tests/test_cli.py, and the
edge configs named in CHANGES.md. Run from anywhere:

    PYTHONPATH=src python tests/golden_outputs.py

With --root DIR the package is imported from DIR/src, while the configs
stay this file's, so one generator hashes two trees, e.g. a checkout of
an earlier commit:

    python tests/golden_outputs.py --root ../parent

With --check FILE the per-output lines are compared with FILE, which
holds such lines (tests/golden.sha256 is the committed set). The script
then prints one line per output that differs from FILE, is missing from
this run or is not in FILE, and a last line `stored hashes: same` or
`stored hashes: N outputs differ`; it exits 1 when any output differs:

    PYTHONPATH=src python tests/golden_outputs.py --check tests/golden.sha256

The file name has no test_ prefix, so pytest does not collect it.
"""

import argparse
import contextlib
import hashlib
import io
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent

_parser = argparse.ArgumentParser(description="Hash the CLI outputs of the golden configs.")
_parser.add_argument(
    "--root", type=pathlib.Path, default=ROOT,
    help="tree whose src/ holds the package to run (default: this file's tree)",
)
_parser.add_argument(
    "--check", type=pathlib.Path, metavar="FILE",
    help="compare the per-output lines with FILE and name each output that differs",
)
ARGS = _parser.parse_args(None if __name__ == "__main__" else [])
PACKAGE_SRC = (ARGS.root / "src").resolve()
sys.path[:0] = [str(PACKAGE_SRC), str(ROOT / "tests"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (perfbench's seeded generators)
import test_cli  # noqa: E402
from contactbounds import cli  # noqa: E402

if PACKAGE_SRC not in pathlib.Path(cli.__file__).resolve().parents:
    sys.exit("contactbounds was imported from %s, not from %s" % (cli.__file__, PACKAGE_SRC))

SEEDS = (1, 2, 3, 7)
PER_WORKLOAD = 25

SWEEPS = {
    "a1": "0.6:0.95:8",
    "a2": "0.6:0.95:8",
    "g": "0.1:1.5:8",
    "A": "0.5:1.5:8",
    "b1": "0.5:3.0:8",
    "b2": "0.5:3.0:8",
    "C1": "0.5:3.0:8",
    "C2": "0.5:3.0:8",
}

INVOCATIONS = [("run-" + f, ["run", "--format", f]) for f in sorted(cli.FORMATS)]
INVOCATIONS.append(("verify", ["verify"]))
INVOCATIONS += [
    ("sweep-" + p, ["sweep", "--param", p, "--range", r]) for p, r in SWEEPS.items()
]

COMP, COH, BEND = test_cli.COMP_CFG, test_cli.COH_CFG, test_cli.BEND_CFG


def _pair(C1, C2, a=0.9):
    return COMP.replace("C = 1.0\na = 0.81", "C = %s\na = %s" % (C1, a), 1).replace(
        "C = 1.0\na = 0.81", "C = %s\na = %s" % (C2, a), 1
    )


# configs of the FOUND:/MENDED: lines of CHANGES.md that tests/test_cli.py
# does not hold under a *_CFG name
EDGE = {
    "coh_g1e3": COH.replace("g = 0.6", "g = 1e3"),
    "coh_g1e6": COH.replace("g = 0.6", "g = 1e6"),
    "bend_A1e300": BEND.replace("A = 1.0", "A = 1e300"),
    "coh_narrow_scan": COH.replace("a = 0.9", "a = 1.2").replace(
        "g = 0.6", "g = 0.691638795986622"
    ),
    "comp_C1e300": COMP.replace("C = 1.0\na = 0.81", "C = 1e300\na = 1e10", 1),
    "comp_C1e9": _pair(1e9, 1e9),
    "comp_C3e9": _pair(3e9, 3e9),
    "comp_C1e12": _pair(1e12, 1e12),
    "bend_C1e9": BEND.replace("C = 1.0", "C = 1e9"),
    "coh_narrow_oracle": COH.replace("C = 1.0\na = 0.9", "C = 1.50638\na = 1.12726")
    .replace("C = 2.0\na = 0.9", "C = 2.20914\na = 1.14784")
    .replace("g = 0.6", "g = 0.988808")
    + "[numerics]\ngrid_n = 50\n",
    "bend_b1e12": BEND.replace("b = 1.0", "b = 1e12"),
    # the injectivity test on either side of a full turn
    "bend_A6.28": BEND.replace("A = 1.0", "A = 6.28"),
    "bend_A6.29": BEND.replace("A = 1.0", "A = 6.29"),
    # a stretch whose square overflows in the closed form's window
    "comp_a1e200": COMP.replace("a = 0.81", "a = 1e200", 1),
    # a bending stretch whose square overflows in the radial pressure and
    # the bending closed form
    "bend_a1e200": BEND.replace("a = 1.0\nb = 1.0", "a = 1e200\nb = 1.0"),
    # A sqrt(a) underflows to 0 in the bending frame and the closed form
    "bend_A1e-300_a1e-300": BEND.replace("A = 1.0", "A = 1e-300").replace(
        "a = 1.0\nb = 1.0", "a = 1e-300\nb = 1.0"
    ),
}


def configs():
    """(name, config text) pairs, in a fixed order."""
    for seed in SEEDS:
        for workload in workloads.WORKLOADS:
            stream = workloads.stream(workload, seed)
            for i in range(PER_WORKLOAD):
                yield "%s:%d:%d" % (workload, seed, i), next(stream)[1]
    for name in sorted(vars(test_cli)):
        value = getattr(test_cli, name)
        if name.endswith("_CFG") and isinstance(value, str):
            yield "test_cli:" + name, value
    for name, text in EDGE.items():
        yield "edge:" + name, text


def output_hash(path, args):
    """SHA-256 of one invocation's exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args[:1] + ["--config", path] + args[1:])
    blob = "%d\0%s\0%s" % (code, out.getvalue(), err.getvalue())
    return hashlib.sha256(blob.encode()).hexdigest()


def output_lines():
    """The line `<config> <invocation> <hash>` of each output, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(pathlib.Path(tmp) / "case.cfg")
        for name, text in configs():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            for label, args in INVOCATIONS:
                yield "%s %s %s" % (name, label, output_hash(path, args))


def check(lines, stored_path):
    """Report the outputs whose lines differ from the stored ones; 1 if any."""
    stored = dict(line.rsplit(" ", 1) for line in stored_path.read_text().splitlines())
    got = dict(line.rsplit(" ", 1) for line in lines)
    report = ["differs: " + k for k in got if k in stored and got[k] != stored[k]]
    report += ["missing: " + k for k in stored if k not in got]
    report += ["extra: " + k for k in got if k not in stored]
    for line in report:
        print(line)
    print("stored hashes: " + ("%d outputs differ" % len(report) if report else "same"))
    return 1 if report else 0


def main():
    if ARGS.check:
        return check(output_lines(), ARGS.check)
    total = hashlib.sha256()
    count = 0
    for line in output_lines():
        print(line)
        total.update(line.encode() + b"\n")
        count += 1
    print("outputs %d total %s" % (count, total.hexdigest()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
