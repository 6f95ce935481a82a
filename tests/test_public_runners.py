"""Every public name has a runner.

The public names are those in the package's `__all__`, which joins the
`__all__` of its modules; every module declares `__all__`, and it lists
each public function and class the module defines.  A public name is run
when a campaign, the CLI, a demo or an acceptance test uses it:
`campaigns.py`, `cli.py`, `demos/*.py` or `tests/test_acceptance.py`
imports it, names it bare, or reads it off a package module
(`criteria.sum_diag`).  The check parses those
files, because a word search would count `svd(t).singular_values` as a use
of a function `singular_values`.  A public name that only its own unit tests
run is code to remove, unless it is listed below with the reason it stays.
"""

import ast
import importlib
import inspect
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
#: The package and each of its modules, by the name a runner reads them off
NAMESPACES = {"schattenframes": schattenframes} | {
    path.stem: importlib.import_module(f"schattenframes.{path.stem}")
    for path in PACKAGE.glob("*.py")
    if path.stem != "__init__"
}
PUBLIC = set(schattenframes.__all__)

#: Public names without a runner, each with the reason it stays.
ALLOWED = {
    "CertificateReport": "result type of the certificates, whose records verify reports",
    "DiskQuadrature": "result type of disk_quadrature, which bergman runs",
    "SamplingLattice": "result type of r_lattice, which bergman runs",
    "SpectralData": "result type of svd, which every command runs",
    "Frame": "the one-frame type that every frame function takes or returns",
    "SynthesisCertificate": "result type of certify_synthesis, which verify and bergman run",
    "TrialGroup": "what a FrameEnsemble walk yields, which verify and norm-estimate run",
    "DoubleSumComparison": "result type of double_sum_comparison, whose kernel verify runs",
    "EndpointReport": "result type of the endpoint suites, whose records verify reports",
    "ScaledCopiesFrame": "result type of scaled_copies_frame, which counterexamples runs",
    "DoubleSumDemo": "result type of divergence_demo_double_sum, which counterexamples runs",
    "HSIdentityReport": "result type of hs_identity_check, whose records bergman reports",
    "SamplingChainReport": "result type of sampling_comparison, whose kernel bergman runs",
    "SubharmonicityReport": "result type of subharmonicity_check, whose kernel bergman runs",
    "as_matrix": "the input check of every operator, which every command runs",
    "hermitian_defect": "the Hermitian test's defect, which every command's certificates run",
    "certify_diag_formula": "library form of the diagonal-sum theorem; verify runs its body",
    "certify_double_formula": "library form of the double-sum theorem; verify runs its body",
    "endpoint_suites": "library form of the p = 1 and p = 2 endpoint checks; verify runs its body",
    "sum_double": "the double frame sum of the paper, beside sum_norms and sum_diag",
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
            and node.value.id in NAMESPACES
        ):
            names.add(node.attr)
    return names


RUN = set().union(*(used_names(path.read_text()) for path in RUNNERS))


def test_runners_found():
    assert len(RUNNERS) == 7 and all(path.is_file() for path in RUNNERS)


def test_attribute_of_a_result_is_not_a_use():
    names = used_names("from .linalg import svd\ns = svd(t).singular_values\nlinalg.psd_power(s, 2)")
    assert names >= {"svd", "psd_power"} and "singular_values" not in names


def defined_public_names(module) -> set:
    """The public functions and classes that `module` defines."""
    return {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }


@pytest.mark.parametrize("module", sorted(NAMESPACES))
def test_module_lists_its_public_names(module):
    namespace = vars(NAMESPACES[module])
    assert "__all__" in namespace, f"{module} declares no __all__"
    missing = defined_public_names(NAMESPACES[module]) - set(namespace["__all__"])
    assert not missing, f"{module} defines public names outside its __all__: {sorted(missing)}"


def test_package_all_is_the_union_the_guard_reads():
    modules = set().union(*(vars(NAMESPACES[m])["__all__"] for m in schattenframes._MODULES))
    assert set(schattenframes.__all__) == modules == PUBLIC
    assert {"main", "write_records_csv", "hermitian_defect"} <= PUBLIC


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_public_name_has_a_runner_or_a_reason(name):
    assert name in RUN or name in ALLOWED, f"{name} has no runner; remove it or allow it"


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_allowed_name_is_public_and_unrun(name):
    assert name in PUBLIC, f"{name} is no longer public"
    assert name not in RUN, f"{name} has a runner now; drop it from ALLOWED"
    assert ALLOWED[name].strip()
