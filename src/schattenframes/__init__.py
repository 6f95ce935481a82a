"""schattenframes: a finite-dimensional laboratory for Schatten-class
operators seen through frames.

The library computes Schatten p-norms from first principles, certifies the
sup/inf frame-sum formulas that characterize them, builds the classical
counterexample constructions separating the p >= 2 and p <= 2 regimes, and
runs the Bergman-space kernel-integral criterion on truncations of the unit
disk's analytic function space.

Importing the package loads none of its modules.  Each public name is listed
once, in its module's `__all__`; the package resolves it on first access
(PEP 562) by importing the modules of `_MODULES` in order until one lists it,
so a name loads its home module and every module before it.  The package's
`__all__` is those lists joined in that order.
"""

import importlib
import sys

__version__ = "0.1.0"

#: The package's modules in dependency order: each imports only modules before it.
_MODULES = (
    "linalg", "serialization", "frames", "criteria", "constructions", "bergman", "campaigns", "cli"
)


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name == "__all__":
        globals()[name] = [n for module in _MODULES for n in __getattr__(module).__all__]
        return globals()[name]
    if not name.startswith("_"):
        for module in map(__getattr__, _MODULES):
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *sys.modules[__name__].__all__})
