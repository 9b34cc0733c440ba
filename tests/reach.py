"""Reach of the package's code: which statement lines and functions run.

Every golden output of tests/golden_outputs.py (each config through
`contactbounds.cli.main`) and tests/test_acceptance.py (through
`pytest.main`) run under a stdlib `sys.settrace` tracer, installed
before the package is imported, that keeps the lines executed and the
functions entered in each module of src/contactbounds. The script
prints, per module,

    <module>: <reached> of <total> statement lines

and under it each function that is never entered, as
`    never entered: <line> <qualified name>`; then the last line

    reach: <reached> of <total> statement lines, <n> functions never entered

A statement line is the first line of an `ast` statement; a statement
counts as reached when a line of its own runs (for a compound statement,
its header: decorators, `def`, `if`, `for` and so on up to its body).
Docstrings, `global` and `nonlocal` compile to no code and are not
counted. Run from anywhere (about 12 s on a 2-core x86-64 VM):

    PYTHONPATH=src python tests/reach.py

It reports and does not judge: the exit code is 0 whatever it finds. The
file name has no test_ prefix, so pytest does not collect it.
"""

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "contactbounds"
FILES = {str(p): p.stem for p in sorted(PACKAGE.glob("*.py"))}

lines = {f: set() for f in FILES}  # file -> line numbers that ran
entered = {f: set() for f in FILES}  # file -> co_firstlineno of the code entered


def _local(frame, event, arg):
    if event == "line":
        lines[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    # every new frame; only the package's are followed line by line
    code = frame.f_code
    if code.co_filename not in FILES:
        return None
    entered[code.co_filename].add(code.co_firstlineno)
    lines[code.co_filename].add(frame.f_lineno)
    return _local


def _is_docstring(node):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(tree):
    """{first line: its own lines} of every statement that compiles to code."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if _is_docstring(node):
            continue
        first = min([d.lineno for d in getattr(node, "decorator_list", [])] + [node.lineno])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        out[node.lineno] = range(first, max(first, last) + 1)
    return out


def functions(tree):
    """(co_firstlineno, qualified name) of every def, methods and nested ones too."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    found.append((first, name))
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def report():
    """The printed lines: per module, then the total."""
    out, reached_all, total_all, missed_all = [], 0, 0, 0
    for path, module in FILES.items():
        tree = ast.parse(pathlib.Path(path).read_text())
        stmts = statements(tree)
        reached = sum(1 for own in stmts.values() if lines[path].intersection(own))
        out.append("%s: %d of %d statement lines" % (module, reached, len(stmts)))
        missed = [(line, name) for line, name in functions(tree) if line not in entered[path]]
        out += ["    never entered: %d %s" % m for m in missed]
        reached_all, total_all, missed_all = (
            reached_all + reached, total_all + len(stmts), missed_all + len(missed)
        )
    out.append("reach: %d of %d statement lines, %d functions never entered"
               % (reached_all, total_all, missed_all))
    return out


def main():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    sys.settrace(_global)
    try:
        import pytest
        import golden_outputs  # imports the package, under the tracer

        for _ in golden_outputs.output_lines():
            pass
        pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests" / "test_acceptance.py")])
    finally:
        sys.settrace(None)
    print("\n".join(report()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
