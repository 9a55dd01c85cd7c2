"""Modules loaded on first attribute access: numpy and the package's own.

A fresh process compiles and runs only the modules its command uses, and
never imports numpy for the exact side of the package (circle and word
bases, relation rows, the integer echelon behind `dims`).  The package
re-exports nothing; importing `cli` registers `braids`, `circles`,
`closure`, `relations`, `transport`, `words` and `_text` in `sys.modules`
without running them, and `cli`, `relations` and `_text` look their
callees up on those handles at call time.  By command, the modules
that run besides `cli`:

- `--help`: none;
- `dims --strands`: `relations` and `words`;
- `dims --circles`: `relations`, `words` and `circles`;
- `verify`: `braids`, `transport` and `words`, plus `relations` for the
  checks that reduce;
- `compute`: `braids`, `transport`, `words` and `_text`, which writes its
  table and JSON;
- `compute --close`: all of them.

An import statement naming a lazy module (`from . import x`,
`import kzbraid.x`) runs it at once, so handles are taken from here.  Every
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
