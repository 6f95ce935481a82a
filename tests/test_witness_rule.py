"""The witness rule has one owner.

`linalg._witness_budget` is the rounding allowance of a sum at an exact
witness basis, and `criteria._witness` judges every witness by it: the
certificates' and the exact `norm-estimate` strategy's.  A module that
budgets a witness of its own holds a second copy of the rule, which then has
to be mended twice.  So the name may appear in `linalg.py` and `criteria.py`
alone.
"""

from pathlib import Path

import pytest

import schattenframes

PACKAGE = Path(schattenframes.__file__).resolve().parent
OWNERS = ("linalg.py", "criteria.py")


@pytest.mark.parametrize("module", OWNERS)
def test_owners_hold_the_rule(module):
    assert "_witness_budget" in (PACKAGE / module).read_text()


@pytest.mark.parametrize(
    "module", sorted(path.name for path in PACKAGE.glob("*.py") if path.name not in OWNERS)
)
def test_no_other_module_names_the_rule(module):
    lines = enumerate((PACKAGE / module).read_text().splitlines(), 1)
    hits = [f"{module}:{n}: {line.strip()}" for n, line in lines if "_witness_budget" in line]
    assert not hits
