"""Every seeded complex Gaussian of the package is drawn by `linalg._gaussian`.

The trial frames, their ONBs, the synthesis probes and the campaigns'
operators are reproducible from their seeds only while each draw takes the
real part and then the imaginary part from the generator, in that order.
One helper holds that order, so `standard_normal` may appear in its body
alone.
"""

import ast
from pathlib import Path

import pytest

import schattenframes

PACKAGE = Path(schattenframes.__file__).resolve().parent


def helper_lines(module: str) -> set:
    """The line numbers of the draw helper's body in `module` (none outside linalg.py)."""
    tree = ast.parse((PACKAGE / module).read_text())
    return {
        n
        for node in tree.body
        if module == "linalg.py" and isinstance(node, ast.FunctionDef) and node.name == "_gaussian"
        for n in range(node.lineno, node.end_lineno + 1)
    }


def test_the_helper_draws():
    lines = (PACKAGE / "linalg.py").read_text().splitlines()
    assert any("standard_normal" in lines[n - 1] for n in helper_lines("linalg.py"))


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_no_other_code_draws(module):
    allowed = helper_lines(module)
    lines = enumerate((PACKAGE / module).read_text().splitlines(), 1)
    hits = [
        f"{module}:{n}: {line.strip()}"
        for n, line in lines
        if "standard_normal" in line and n not in allowed
    ]
    assert not hits
