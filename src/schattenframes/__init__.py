"""schattenframes: a finite-dimensional laboratory for Schatten-class
operators seen through frames.

The library computes Schatten p-norms from first principles, certifies the
sup/inf frame-sum formulas that characterize them, builds the classical
counterexample constructions separating the p >= 2 and p <= 2 regimes, and
runs the Bergman-space kernel-integral criterion on truncations of the unit
disk's analytic function space.
"""

from .bergman import (
    DiskQuadrature,
    SamplingLattice,
    bergman_kernel,
    bergman_metric,
    disk_quadrature,
    hs_identity_check,
    integral_criterion,
    kernel_coefficients,
    kernel_truncation_defect,
    r_lattice,
    sampling_comparison,
    sampling_frame,
    subharmonicity_check,
)
from .campaigns import (
    CampaignConfig,
    CampaignReport,
    run_bergman,
    run_counterexamples,
    run_norm_estimate,
    run_verify_theorems,
)
from .constructions import (
    GrowthSeries,
    diag_divergence_frame,
    divergence_demo_double_sum,
    divergence_demo_sum_norms,
    growth_series,
    log_weight_norm_series,
    log_weight_vector,
    nonvanishing_direction,
    scaled_copies_frame,
    truncated_shift,
)
from .criteria import (
    CertificateReport,
    SumReport,
    certify_diag_formula,
    certify_double_formula,
    certify_norm_formula,
    double_sum_comparison,
    endpoint_suites,
    sum_diag,
    sum_double,
    sum_norms,
    weighted_sum,
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
    singular_values,
    svd,
)
from .serialization import (
    frame_from_dict,
    frame_to_dict,
    matrix_from_dict,
    matrix_to_dict,
    read_frame,
    read_matrix,
    write_frame,
    write_matrix,
)

__version__ = "0.1.0"
