"""schattenframes: a finite-dimensional laboratory for Schatten-class
operators seen through frames.

The library computes Schatten p-norms from first principles, certifies the
sup/inf frame-sum formulas that characterize them, builds the classical
counterexample constructions separating the p >= 2 and p <= 2 regimes, and
runs the Bergman-space kernel-integral criterion on truncations of the unit
disk's analytic function space.
"""

import importlib

from .campaigns import (
    CampaignConfig,
    CampaignReport,
    run_bergman,
    run_counterexamples,
    run_norm_estimate,
    run_verify_theorems,
)
from .frames import (
    Frame,
    FrameEnsemble,
    canonical_parseval,
    certify_synthesis,
    make_frame,
    random_frame,
    random_onb,
    rescale_lower_bound_one,
    rescale_upper_bound_one,
    union_frame,
)
from .linalg import (
    SpectralData,
    hermitian_eigen,
    psd_power,
    schatten_norm,
    svd,
)
from .serialization import (
    matrix_from_dict,
    matrix_to_dict,
    read_matrix,
    write_matrix,
)

__version__ = "0.1.0"

# The modules that only some commands run load on the first access to one of
# their public names (PEP 562), so a request pays for the modules it runs.
_LAZY = {
    "bergman": (
        "DiskQuadrature", "SamplingLattice", "bergman_kernel", "bergman_metric", "disk_quadrature",
        "hs_identity_check", "integral_criterion", "kernel_coefficients", "r_lattice",
        "sampling_comparison", "sampling_frame", "subharmonicity_check",
    ),
    "constructions": (
        "GrowthSeries", "diag_divergence_frame", "divergence_demo_double_sum",
        "divergence_demo_sum_norms", "growth_series", "log_weight_norm_series", "log_weight_vector",
        "nonvanishing_direction", "scaled_copies_frame", "truncated_shift",
    ),
    "criteria": (
        "CertificateReport", "certify_diag_formula", "certify_double_formula",
        "certify_norm_formula", "double_sum_comparison", "endpoint_suites", "sum_diag",
        "sum_double", "sum_norms", "weighted_sum",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}
# the names imported above, whose objects the package's modules define, then the deferred ones
__all__ = [n for n, obj in globals().items() if getattr(obj, "__module__", "").startswith(__name__)]
__all__ += _HOME


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
