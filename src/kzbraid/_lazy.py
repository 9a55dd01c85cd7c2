"""numpy, loaded on first attribute access.

The exact side of the package (circle and word bases, relation rows, the
integer echelon behind `dims`) never touches numpy, so a process that only
runs it, or only prints `--help`, does not pay for importing numpy.  Every
module takes `np` from here; none uses it at import time.  A missing numpy
is still an ImportError when the package is imported.
"""

import importlib.util
import sys


def _lazy_module(name):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_module("numpy")
