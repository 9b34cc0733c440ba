"""Mutation audit of the ordering comparisons behind the guarantees.

Every ordering comparison (<, <=, >, >=) in the modules bounds, cli,
contact, energy, kinematics, material and states gives two mutants, made
with `ast` (tensor3 has no ordering comparison):

* the negation, e.g. `<` -> `>=`,
* the boundary swap, e.g. `<` -> `<=`.

The tree is copied once into a temporary directory; each mutant replaces
one module there (as `ast.unparse` text), the tier-1 command runs in the
copy with `-x`, and the module is put back. The working tree is never
written. The unmutated `ast.unparse` copy runs first and must pass.
The script prints one line per mutant,

    <module> <line>:<column> <operator> -> <mutant> <killing test | survived>

then the number of mutants and of survivors. Run from anywhere, over
all seven modules or over the ones named:

    python tests/mutants.py
    python tests/mutants.py contact states

A survivor that is equivalent to the original (no input tells them apart)
is named in EQUIVALENT with the reason, keyed by the comparison's source
text, so that edits elsewhere in the module do not move it; a key that
names no comparison, or more than one, stops the audit before it starts.
A tier-1 run that takes longer than TIMEOUT seconds counts as a kill.
The file name has no test_ prefix, so pytest does not collect it.
"""

import ast
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = ("bounds", "cli", "contact", "energy", "kinematics", "material", "states")
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}
NEGATION = {ast.Lt: ast.GtE, ast.LtE: ast.Gt, ast.Gt: ast.LtE, ast.GtE: ast.Lt}
BOUNDARY_SWAP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
TIMEOUT = 120
TIER1 = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors")

#: (module, comparison as ast.unparse gives it, mutant operator) -> why the
#: mutant is equivalent
EQUIVALENT = {
    ("bounds", "a <= 1.0", "<"): "at a = 1 both branches give C (1 - 1) and C (1 + 1), "
    "as sqrt(1) and 1 / 1 are both 1",
    ("cli", "abs(config.body1.a - 1.0) < 1e-12", "<="): "a - 1 is exact for a in [0.5, 2] and "
    "a multiple of 2^-53 there, and at least 0.5 outside, so it never equals 1e-12",
    ("cli", "abs(config.body2.a - 1.0) < 1e-12", "<="): "as for body 1",
    ("cli", "np.linalg.det(Q) < 0.0", "<="): "the fixed draws' Q is orthogonal, det +/-1, never 0",
    ("cli", "worst_adj < 1e-12", "<="): "the adjugate residual comes from the fixed draws "
    "alone, 8.882e-16 for every config",
    ("cli", "worst_j < 1e-12", "<="): "max |J - 1| is a NaN-skipping maximum of |J - 1|, "
    "which never equals 1e-12, as for material's CONSTRAINT_TOL",
    ("material", "abs(J - 1.0) > CONSTRAINT_TOL", ">="): "|J - 1| = 1e-8 needs J = 1 +/- 1e-8 "
    "exactly (J - 1 is exact for J in [0.5, 2], and at least 0.5 outside), and 1e-8 is no "
    "multiple of 2^-53, the float spacing there",
    ("states", "abs(map1.radius(BOX1.x_hi) - r2) <= GAP_TOL", "<"): "radii are at least "
    "R_MIN = 1e-6 > 2^-20, so a difference of two that is below 1e-10 is exact and a multiple "
    "of 2^-72, and 1e-10 is no such multiple",
}


def sites(tree):
    """(Compare node, operator index) of every ordering comparison, in source order."""
    found = [
        (node, i)
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        for i, op in enumerate(node.ops)
        if type(op) in SYMBOL
    ]
    return sorted(found, key=lambda s: (s[0].lineno, s[0].col_offset, s[1]))


def mutants(module):
    """(site, comparison, operator, mutant operator, source) of each mutant
    of a module; the site is "line:column" of the comparison's right operand,
    the comparison its unmutated ast.unparse text."""
    path = ROOT / "src" / "contactbounds" / (module + ".py")
    tree = ast.parse(path.read_text(), str(path))
    for node, i in sites(tree):
        op, right = node.ops[i], node.comparators[i]
        site = "%d:%d" % (right.lineno, right.col_offset + 1)
        text = ast.unparse(node)
        for table in (NEGATION, BOUNDARY_SWAP):
            node.ops[i] = table[type(op)]()
            yield site, text, SYMBOL[type(op)], SYMBOL[type(node.ops[i])], ast.unparse(tree)
        node.ops[i] = op


def check_equivalent():
    """Stop unless each EQUIVALENT key names exactly one mutant."""
    keys = [(m, text, new) for m in MODULES for _, text, _, new, _ in mutants(m)]
    for key in EQUIVALENT:
        if keys.count(key) != 1:
            sys.exit("EQUIVALENT key %r names %d mutants, not 1" % (key, keys.count(key)))


def tier1(copy):
    """(returncode, the first failing test id or None) of tier-1 in copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        out = subprocess.run(
            [sys.executable, *TIER1], cwd=copy, env=env, timeout=TIMEOUT,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    except subprocess.TimeoutExpired:
        return None, "timeout after %d s" % TIMEOUT
    for line in out.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return out.returncode, line.split(" ", 1)[1].split(" - ")[0]
    return out.returncode, None


def main(argv=None):
    chosen = sys.argv[1:] if argv is None else argv
    unknown = [m for m in chosen if m not in MODULES]
    if unknown:
        sys.exit("unknown module(s) %s; choose from %s" % (" ".join(unknown), " ".join(MODULES)))
    chosen = [m for m in MODULES if m in chosen] if chosen else MODULES
    check_equivalent()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = pathlib.Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench-*"))
        pkg = copy / "src" / "contactbounds"
        originals = {m: (pkg / (m + ".py")).read_text() for m in MODULES}
        for m, text in originals.items():
            (pkg / (m + ".py")).write_text(ast.unparse(ast.parse(text)))
        start = time.perf_counter()
        code, failed = tier1(copy)
        if code != 0:
            sys.exit("the unmutated copy fails tier-1: %s" % (failed or "exit %s" % code))
        print("baseline: tier-1 passes in %.1f s" % (time.perf_counter() - start), flush=True)
        total = survived = 0
        for m in chosen:
            target = pkg / (m + ".py")
            for site, text, op, new, source in mutants(m):
                target.write_text(source)
                code, failed = tier1(copy)
                total += 1
                if code == 0:
                    survived += 1
                    why = EQUIVALENT.get((m, text, new))
                    verdict = "survived" + (" (equivalent: %s)" % why if why else "")
                else:
                    verdict = failed or "exit %s" % code
                print("%s %s %s -> %s %s" % (m, site, op, new, verdict), flush=True)
            target.write_text(ast.unparse(ast.parse(originals[m])))
        print("mutants %d survived %d" % (total, survived))


if __name__ == "__main__":
    main()
