"""Every p-th power sum of the package is taken by `linalg._power_sum`.

The statements the package checks are p-th power sums over a frame or a
spectrum: sum_n ||T f_n||^p, sum_n |<T f_n, f_n>|^p, sum_{n,k} |<T f_n, f_k>|^p,
||T||_p^p and the Bergman integrals and lattice sums.  One helper raises the
terms to p, sums them and names an overflow, so a rescaling of these sums
changes one function.  A call of `np.sum` whose argument raises something to
a bare `p` or `q` may therefore appear in its body alone, and the helper it
replaced, `_checked_sums`, stays gone.

`ScaledCopiesFrame.power_sum_identity` stays outside the rule: it is the
rebalancing identity, not a power sum over a frame, and its exponents are
attributes (`self.p`).  Routing it through the helper would change the
association of counts * scales**p * values**p and move the bits of
`identity_lhs`.
"""

import ast
from pathlib import Path

import pytest

import schattenframes

PACKAGE = Path(schattenframes.__file__).resolve().parent
EXPONENTS = {"p", "q"}


def helper_lines(module: str, tree: ast.Module) -> set:
    """The line numbers of the power-sum helper's body in `module` (none outside linalg.py)."""
    return {
        n
        for node in tree.body
        if module == "linalg.py" and isinstance(node, ast.FunctionDef) and node.name == "_power_sum"
        for n in range(node.lineno, node.end_lineno + 1)
    }


def power_sums(tree: ast.Module) -> list:
    """The `np.sum` calls of `tree` with an argument that raises something to a bare p or q."""
    return [
        call
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "sum"
        and isinstance(call.func.value, ast.Name)
        and call.func.value.id == "np"
        and any(
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Pow)
            and isinstance(node.right, ast.Name)
            and node.right.id in EXPONENTS
            for arg in [*call.args, *(keyword.value for keyword in call.keywords)]
            for node in ast.walk(arg)
        )
    ]


def test_the_helper_sums_powers():
    tree = ast.parse((PACKAGE / "linalg.py").read_text())
    inside = helper_lines("linalg.py", tree)
    assert inside and any(call.lineno in inside for call in power_sums(tree))


def test_the_rule_sees_a_power_sum():
    tree = ast.parse("total = np.sum(weights * np.abs(x) ** p, axis=-1)\nnp.sum(s**2)\n")
    assert [call.lineno for call in power_sums(tree)] == [1]


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_no_other_code_sums_powers(module):
    source = (PACKAGE / module).read_text()
    tree = ast.parse(source)
    allowed = helper_lines(module, tree)
    lines = source.splitlines()
    hits = [
        f"{module}:{call.lineno}: {lines[call.lineno - 1].strip()}"
        for call in power_sums(tree)
        if call.lineno not in allowed
    ]
    assert not hits
    assert "_checked_sums" not in source
