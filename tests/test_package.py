import importlib
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
