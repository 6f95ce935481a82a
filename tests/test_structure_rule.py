"""Only `linalg` decides whether an operator is square, Hermitian or PSD.

`linalg` judges Hermitian and PSD by one scale-relative rule, with its
tolerance `STRUCTURAL_TOL` stated next to its error analysis.  A module that
computes a hermiticity defect or an eigenvalue-only decomposition of its own
is deciding structure with a tolerance of its own, which is how absolute
thresholds that fail at small and large scales came about.  So these names,
the square test and the test of whether p is a grid may appear in
`linalg.py` alone.
"""

import re
from pathlib import Path

import pytest

import schattenframes

PACKAGE = Path(schattenframes.__file__).resolve().parent
RULE_NAMES = re.compile(
    r"hermitian_defect|STRUCTURAL_TOL|eigvalsh|shape\[0\] != \w+\.shape\[1\]|np\.ndim\(p\)"
)


def test_linalg_holds_the_rule():
    assert RULE_NAMES.search((PACKAGE / "linalg.py").read_text())


@pytest.mark.parametrize(
    "module", sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "linalg.py")
)
def test_no_other_module_names_the_rule(module):
    lines = enumerate((PACKAGE / module).read_text().splitlines(), 1)
    hits = [f"{module}:{n}: {line.strip()}" for n, line in lines if RULE_NAMES.search(line)]
    assert not hits
