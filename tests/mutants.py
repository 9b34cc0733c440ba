"""Mutation audit of the ordering comparisons behind the guarantees.

Every ordering comparison (<, <=, >, >=) in the modules bounds, contact,
energy, kinematics and material gives two mutants, made with `ast`:

* the negation, e.g. `<` -> `>=`,
* the boundary swap, e.g. `<` -> `<=`.

The tree is copied once into a temporary directory; each mutant replaces
one module there (as `ast.unparse` text), the tier-1 command runs in the
copy with `-x`, and the module is put back. The working tree is never
written. The unmutated `ast.unparse` copy runs first and must pass.
The script prints one line per mutant,

    <module> <line>:<column> <operator> -> <mutant> <killing test | survived>

then the number of mutants and of survivors. Run from anywhere:

    python tests/mutants.py

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
MODULES = ("bounds", "contact", "energy", "kinematics", "material")
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
    ("bounds", "2.0 * a2 + b2 <= 0.0", "<"): "reached only when a2 + b2 > 0 (or NaN) with a2 > 0, "
    "so 2 a2 + b2 > 0 (or NaN), rounding being monotone",
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


def main():
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
        for m in MODULES:
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
