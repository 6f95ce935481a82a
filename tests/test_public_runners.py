"""Every public name has a runner.

A name in `schattenframes.__all__` is run when a campaign, the CLI, a demo
or an acceptance test uses it: `campaigns.py`, `cli.py`, `demos/*.py` or
`tests/test_acceptance.py` imports it, names it bare, or reads it off a
package module (`criteria.sum_diag`).  The check parses those files, because
a word search would count `svd(t).singular_values` as a use of a function
`singular_values`.  A public name that only its own unit tests run is code
to remove, unless it is listed below with the reason it stays.
"""

import ast
from pathlib import Path

import pytest

import schattenframes

PACKAGE = Path(schattenframes.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
RUNNERS = [
    PACKAGE / "campaigns.py",
    PACKAGE / "cli.py",
    *sorted((ROOT / "demos").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]
MODULES = {"schattenframes", *(path.stem for path in PACKAGE.glob("*.py"))}

#: Public names without a runner, each with the reason it stays.
ALLOWED = {
    "CertificateReport": "result type of the certificates, whose records verify reports",
    "DiskQuadrature": "result type of disk_quadrature, which bergman runs",
    "SamplingLattice": "result type of r_lattice, which bergman runs",
    "SpectralData": "result type of svd, which every command runs",
    "certify_diag_formula": "library form of the diagonal-sum theorem; verify runs its body",
    "certify_double_formula": "library form of the double-sum theorem; verify runs its body",
    "endpoint_suites": "library form of the p = 1 and p = 2 endpoint checks; verify runs its body",
    "sum_double": "the double frame sum of the paper, beside sum_norms and sum_diag",
    "kernel_truncation_defect": "closed-form oracle that test_bergman checks the kernel against",
    "hermitian_eigen": "eigensystem that the diagonal and double certificate jobs call",
    "matrix_to_dict": "writer half of the matrix format that norm-estimate reads",
    "matrix_from_dict": "reader of the matrix format, behind read_matrix",
    "write_matrix": "writes the matrix files that norm-estimate reads",
}


def used_names(source: str) -> set:
    """Names the Python `source` imports, names bare, or reads off a package module."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in MODULES
        ):
            names.add(node.attr)
    return names


RUN = set().union(*(used_names(path.read_text()) for path in RUNNERS))


def test_runners_found():
    assert len(RUNNERS) == 7 and all(path.is_file() for path in RUNNERS)


def test_attribute_of_a_result_is_not_a_use():
    names = used_names("from .linalg import svd\ns = svd(t).singular_values\nlinalg.psd_power(s, 2)")
    assert names >= {"svd", "psd_power"} and "singular_values" not in names


@pytest.mark.parametrize("name", sorted(schattenframes.__all__))
def test_public_name_has_a_runner_or_a_reason(name):
    assert name in RUN or name in ALLOWED, f"{name} has no runner; remove it or allow it"


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_allowed_name_is_public_and_unrun(name):
    assert name in schattenframes.__all__, f"{name} is no longer public"
    assert name not in RUN, f"{name} has a runner now; drop it from ALLOWED"
    assert ALLOWED[name].strip()
