"""Every verdict budget is named once, in `linalg`, beside its source.

A check compares a computed value with its exact target within a budget.
`linalg` names each budget once, states its source (a rounding analysis or a
discretization bound) and judges values by `_verdict`.  A bare small float
literal elsewhere is a budget with no stated source, which is how twenty
unnamed thresholds came about.  So no module but `linalg.py` holds a float
literal with 0 < |x| < 1e-2, apart from the entries of ALLOWED, which judge
nothing.
"""

import ast
from pathlib import Path

import pytest

import schattenframes

PACKAGE = Path(schattenframes.__file__).resolve().parent
OTHER_MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "linalg.py")

#: (module, function, value) -> why that literal is no budget; "*" matches any name.
ALLOWED = {
    ("*", "*", 1e-300): "underflow floor under a ratio or a scale",
    ("bergman.py", "_pair_distances", 1e-16): "clips rho below 1 so that arctanh stays finite",
    ("bergman.py", "r_lattice", 1e-9): "relative padding of the ring spacing, a construction input",
    ("bergman.py", "r_lattice", 1e-12): "absolute padding of the ring spacing, a construction input",
    ("frames.py", "_phase_fix", 1e-14): "pivot test of the ONB phase convention, which judges nothing",
    ("campaigns.py", "run_bergman", 1e-9): "the radius 1 - 1e-9 of the orthonormality quadrature",
}


def small_literals(module: str) -> list:
    """(function, value, line) of each float literal with 0 < |x| < 1e-2 in `module`."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Constant) and type(node.value) is float:
            if 0 < abs(node.value) < 1e-2:
                found.append((function, node.value, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse((PACKAGE / module).read_text()), "<module>")
    return found


def matches(key: tuple, module: str, function: str, value: float) -> bool:
    m, f, v = key
    return m in ("*", module) and f in ("*", function) and v == value


def test_linalg_holds_the_budgets():
    assert small_literals("linalg.py")
    assert "def _verdict(" in (PACKAGE / "linalg.py").read_text()


@pytest.mark.parametrize("module", OTHER_MODULES)
def test_no_other_module_writes_a_budget(module):
    hits = [
        f"{module}:{line}: {value!r} in {function}"
        for function, value, line in small_literals(module)
        if not any(matches(key, module, function, value) for key in ALLOWED)
    ]
    assert not hits


def test_every_allowed_literal_is_still_written():
    written = {(m, f, v) for m in OTHER_MODULES for f, v, _ in small_literals(m)}
    for key in ALLOWED:
        assert any(matches(key, *site) for site in written), key


def tolerance_parameters(module: str) -> list:
    """(function, parameter) of each parameter named `tol` or `tolerance` in `module`."""
    found = []
    for node in ast.walk(ast.parse((PACKAGE / module).read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            found += [
                (getattr(node, "name", "<lambda>"), param.arg)
                for param in params
                if param is not None and param.arg in ("tol", "tolerance")
            ]
    return found


def test_only_the_verdict_takes_a_tolerance():
    """Every certificate is judged at a named budget: CERTIFICATE_TOL for the
    paper's characterizations, the others beside their sources in `linalg`.
    Only `_verdict`, which its callers give one of those budgets, takes a
    tolerance as a parameter."""
    assert tolerance_parameters("linalg.py") == [("_verdict", "tol")]
    hits = {module: tolerance_parameters(module) for module in OTHER_MODULES}
    assert not {module: found for module, found in hits.items() if found}
