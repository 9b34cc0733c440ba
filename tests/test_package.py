import ast
import importlib
import inspect
import pkgutil

import contactbounds


def test_every_listed_export_exists():
    # a name left in __all__ after a deletion breaks `from ... import *`
    listed = 0
    for info in pkgutil.iter_modules(contactbounds.__path__):
        mod = importlib.import_module("contactbounds." + info.name)
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), "%s.__all__ lists %r" % (mod.__name__, name)
            listed += 1
    assert listed > 0


def _names(node):
    # the exception names of a handler or raise: a Name, a call or a tuple
    if isinstance(node, ast.Call):
        node = node.func
    parts = node.elts if isinstance(node, ast.Tuple) else [node]
    return {p.id for p in parts if isinstance(p, ast.Name)}


def test_one_home_for_float_overflow_and_underflow():
    # only tensor3._cpow (and _square through it) turns a float power's
    # OverflowError into a named one, and only tensor3._axial_rate names an
    # A sqrt(a) that underflows
    catches, raises = set(), set()
    for info in pkgutil.iter_modules(contactbounds.__path__):
        mod = importlib.import_module("contactbounds." + info.name)
        for fn in ast.walk(ast.parse(inspect.getsource(mod))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    if "OverflowError" in _names(node.type):
                        catches.add((info.name, fn.name))
                if isinstance(node, ast.Raise) and node.exc is not None:
                    if "ZeroDivisionError" in _names(node.exc):
                        raises.add((info.name, fn.name))
    assert catches == {("tensor3", "_cpow")}
    assert raises == {("tensor3", "_axial_rate")}
