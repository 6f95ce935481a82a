"""Seeded verification campaigns: each command runs a battery of checks and
emits a deterministic report (JSON plus per-check CSV tables).

Reports are reproducible: given the same config (seed included) the numeric
content is identical across runs; only the wall-time field varies.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import serialization
from .frames import FrameEnsemble, _certify_synthesis, certify_synthesis, make_frame
from .linalg import CERTIFICATE_TOL, CHAIN_STABILITY_TOL, ELEMENTWISE_TOL, IDENTITY_TOL
from .linalg import ORTHONORMALITY_TOL, SV_TOL, _check_count, _check_p, _check_seed, _verdict
from .linalg import _gaussian, _is_real, _positive_float, _power_sum, _pth_root, svd

# the run functions import the modules only their command runs
if TYPE_CHECKING:
    from . import constructions

__all__ = [
    "CampaignConfig",
    "CampaignReport",
    "random_operator",
    "random_hermitian",
    "random_psd",
    "run_verify_theorems",
    "run_counterexamples",
    "run_bergman",
    "run_norm_estimate",
]

DEFAULT_P_GRID = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
#: The largest p of the grid at which bergman checks subharmonicity.  The stencil
#: budget grows with max ||T K_w||^p faster than the least Laplacian, so the check
#: tells less as p grows: on bergman's five operators at dims 4-64 the least
#: Laplacian is at least 10.9 budgets at p = 3, 2.9 at p = 4 and 0.11 at p = 6, where
#: a dip below zero as deep as the Laplacian's least value would pass.
SUBHARMONICITY_P_MAX = 3.0
SCHEMA_VERSION = 1


def _jsonable(obj):
    """Convert numpy scalars/arrays nested in report structures.

    NaN sentinels (not-applicable measurements) become JSON null.
    """
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return None if np.isnan(obj) else float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


@dataclass
class CampaignConfig:
    """Parameters shared by all campaign commands."""

    command: str
    seed: int = 0
    dim: int = 8
    trials: int = 200
    p_grid: tuple[float, ...] = DEFAULT_P_GRID
    rmax: float = 0.995
    output_dir: str | None = None

    def __post_init__(self):
        _check_seed(self.seed)
        _check_count("dim", self.dim)
        _check_count("trials", self.trials)
        grid = self.p_grid if isinstance(self.p_grid, (list, tuple)) else ()
        ps = [_positive_float(p) for p in grid]
        if not ps or None in ps:
            raise ValueError(
                f"p_grid must be a nonempty list of finite positive numbers, got {self.p_grid!r}"
            )
        self.p_grid = tuple(ps)
        if not (_is_real(self.rmax) and 0 < self.rmax < 1):
            raise ValueError(f"rmax must be a number in (0, 1), got {self.rmax!r}")
        if not isinstance(self.output_dir, (str, type(None))):
            raise ValueError(f"output_dir must be a path string, got {self.output_dir!r}")


@dataclass
class CampaignReport:
    """Per-check records with a config echo and summary counts.

    `exports` maps CSV file names (growth series, quadrature nodes, lattice
    points) to writers taking the file's path; write() calls each with a
    path next to the report.
    """

    config: dict
    records: list[dict]
    wall_time_s: float
    exports: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(rec.get("passed", False) for rec in self.records)

    def summary(self) -> dict:
        n_pass = sum(1 for rec in self.records if rec.get("passed", False))
        return {"total": len(self.records), "passed": n_pass, "failed": len(self.records) - n_pass}

    def numeric_content(self) -> dict:
        """Everything except volatile fields (wall time)."""
        return _jsonable(
            {
                "schema_version": SCHEMA_VERSION,
                "config": self.config,
                "summary": self.summary(),
                "records": self.records,
            }
        )

    def to_dict(self) -> dict:
        out = self.numeric_content()
        out["wall_time_s"] = self.wall_time_s
        return out

    def write(self, output_dir) -> Path:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        report_path = out / "report.json"
        report_path.write_text(json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n")
        by_tag: dict[str, list[dict]] = {}
        for rec in _jsonable(self.records):
            flat = {
                k: (json.dumps(v) if isinstance(v, (list, dict)) else v)
                for k, v in rec.items()
            }
            by_tag.setdefault(rec.get("tag", "untagged"), []).append(flat)
        for tag, recs in by_tag.items():
            serialization.write_records_csv(out / f"{tag}.csv", recs)
        for name, write_csv in self.exports.items():
            write_csv(out / name)
        return report_path


def random_operator(dim: int, seed: int) -> np.ndarray:
    """Seeded complex Gaussian matrix (entries variance 1)."""
    return _gaussian(np.random.default_rng(seed), (dim, dim)) / np.sqrt(2.0)


def random_hermitian(dim: int, seed: int) -> np.ndarray:
    g = random_operator(dim, seed)
    return 0.5 * (g + g.conj().T)


def random_psd(dim: int, seed: int) -> np.ndarray:
    g = random_operator(dim, seed)
    return (g @ g.conj().T) / dim


#: The CampaignConfig fields each command reads, besides output_dir: the CLI offers
#: these, and only these, as the command's flags and config-file keys.
_SETTINGS = {
    "verify-theorems": ("seed", "dim", "trials", "p_grid"),
    "counterexamples": ("dim", "p_grid"),
    "bergman": ("seed", "dim", "trials", "p_grid", "rmax"),
    "norm-estimate": ("seed", "trials"),  # the frame_ensemble strategy reads them
}


def _reads(command: str, strategy: str | None = None) -> tuple[str, tuple]:
    """A run of `command` as the CLI names it, and the settings it reads: the
    command's, of which the exact norm estimate reads none."""
    exact = strategy == "singular_basis_exact"
    return (f"{command} --strategy {strategy}", ()) if exact else (command, _SETTINGS[command])


def _echo(config: CampaignConfig, command: str, strategy: str | None = None) -> dict:
    """The config echo of a report: the command, the settings its run reads and output_dir."""
    settings = {key: getattr(config, key) for key in _reads(command, strategy)[1]}
    return {"command": config.command, **settings, "output_dir": config.output_dir}


def run_verify_theorems(config: CampaignConfig) -> CampaignReport:
    """Execute every certificate family over one seeded FrameEnsemble, walked once."""
    from . import criteria
    start = time.perf_counter()
    dim, trials, seed = config.dim, config.trials, config.seed
    records: list[dict] = []

    general = random_operator(dim, seed + 11)
    hermitian = random_hermitian(dim, seed + 22)
    psd = random_psd(dim, seed + 33)

    # each certificate runs once over the exponents of the grid it applies to;
    # the records of one p are its certificates in this order, then its enclosure
    diag = criteria._diag_job
    checks = [
        (criteria._norm_job, general, lambda p: True),
        (partial(diag, direction="sup_below"), hermitian, lambda p: p >= 1),
        (partial(diag, direction="inf_above"), psd, lambda p: p <= 1),
        (criteria._double_job, general, lambda p: p >= 2),
        (criteria._double_job, hermitian, lambda p: p <= 2),
    ]
    at = [[j for j, p in enumerate(config.p_grid) if applies(p)] for _, _, applies in checks]
    jobs = [job(op, [config.p_grid[j] for j in js]) for (job, op, _), js in zip(checks, at) if js]
    endpoints = {"trace_endpoint": psd, "hs_endpoint": general}
    synthesis = []  # the certificates of each group's ONB and raw-frame variants
    enclosures = []  # each group's double-sum comparisons, one per p
    endpoint_sums = {tag: [] for tag in endpoints}  # each group's raw-frame sums, per suite

    def visit(group):
        # the ONB, raw and derived frames of a trial share its probe seed, and each
        # stack is certified at its bounds; they stay separate stacks, as a joined
        # copy of the stacks the walk holds would raise the peak RSS
        synthesis.extend(_certify_synthesis(group.stacks, group.seeds))
        # trial i's raw frame, of trial seed s = seed + i, is paired with operator seed + 1000 + i
        ops = np.stack([random_operator(dim, s + 1000) for s in group.seeds])
        enclosures.append(criteria._comparisons(ops, group.raw, config.p_grid))
        for tag, op in endpoints.items():
            endpoint_sums[tag].append(criteria._endpoint_sums(op, group.raw))

    per_p: list[list[dict]] = [[] for _ in config.p_grid]
    reports = criteria._certify(FrameEnsemble(dim, trials, seed), jobs, visit=visit)
    for js, job_reports in zip([js for js in at if js], reports):
        for j, rep in zip(js, job_reports):
            per_p[j].append(asdict(rep))
    for p, certificates, comps in zip(config.p_grid, per_p, zip(*enclosures)):
        # each side's least margin over every trial, None where the side does not apply
        sides = [[getattr(c, f"{side}_margin") for c in comps] for side in ("upper", "lower")]
        upper, lower = (None if m[0] is None else float(np.min(np.concatenate(m))) for m in sides)
        enclosure = {
            "tag": "double_sum_enclosure",
            "p": p,
            "trials": trials,
            "min_upper_margin": upper,
            "min_lower_margin": lower,
            "tolerance": CERTIFICATE_TOL,
            "passed": all(np.all(c.passed) for c in comps),
        }
        records += certificates + [enclosure]

    for tag, op in endpoints.items():
        rep = criteria._endpoint_report(op, endpoint_sums[tag], trials)
        records.append({"tag": tag, **asdict(rep)})

    records.append(
        {
            "tag": "synthesis_bounds",
            "frames_certified": sum(cert.passed.size for cert in synthesis),
            "max_analysis_dev": max(0.0, *(np.max(c.analysis_identity_dev) for c in synthesis)),
            "tolerance": CERTIFICATE_TOL,
            "passed": all(np.all(cert.passed) for cert in synthesis),
        }
    )

    return CampaignReport(_echo(config, "verify-theorems"), records, time.perf_counter() - start)


def _growth_record(exports: dict, head: dict, series: constructions.GrowthSeries, **tail) -> dict:
    """The keys of `head`, the fields of `series`, then `tail`.

    The series goes to `exports` as growth_<tag>_p<p>.csv.
    """
    name = f"growth_{head['tag']}_p{head['p']}.csv"
    exports[name] = partial(serialization.write_growth_csv, series=series)
    return {**head, **asdict(series), **tail}


def run_counterexamples(config: CampaignConfig) -> CampaignReport:
    """Growth studies for every divergence construction."""
    from . import constructions, criteria
    if config.dim < 2:
        raise ValueError(f"counterexamples needs dim >= 2, got dim = {config.dim}")
    start = time.perf_counter()
    records: list[dict] = []
    exports: dict = {}
    grid = constructions.DEFAULT_GRID

    trends = [("control_series", 2.0, constructions.log_weight_norm_series(grid), "bounded_trend")]
    for p in config.p_grid:
        if 0 < p < 2:
            series = constructions.divergence_demo_sum_norms(p, grid)
            trends.append(("rank_one_growth", p, series, "divergent_trend"))
    for tag, p, series, expected in trends:
        head = {"tag": tag, "p": p}
        passed = series.verdict == expected
        records.append(_growth_record(exports, head, series, expected=expected, passed=passed))

    built = constructions.scaled_copies_frame(p=3.0, epsilon=3.0, n_terms=min(config.dim * 4, 40))
    lhs, rhs = built.power_sum_identity()
    products = built.counts * built.scales**2
    n = np.arange(1, grid[-1] + 1, dtype=float)
    div_series = constructions.growth_series(1.0 / n, grid)  # sum of values^p
    conv_series = constructions.growth_series(n ** (-2.0), grid)  # sum of values^(p+eps)
    records.append(
        {
            "tag": "scaled_copies",
            "p": 3.0,
            "epsilon": 3.0,
            "n_terms": int(built.values.size),
            "identity_lhs": lhs,
            "identity_rhs": rhs,
            "identity_rel_dev": abs(lhs - rhs) / max(1e-300, rhs),
            "max_product_dev": float(np.max(np.abs(products - 1.0))),
            "frame_lower": built.frame.lower_bound,
            "frame_upper": built.frame.upper_bound,
            "p_series_verdict": div_series.verdict,
            "p_eps_series_verdict": conv_series.verdict,
            "passed": (
                bool(_verdict(lhs - rhs, 0.0, 0.0, ELEMENTWISE_TOL, rhs)[1])
                and 0.5 <= built.frame.lower_bound
                and built.frame.upper_bound <= 2.0
                and div_series.verdict == "divergent_trend"
                and conv_series.verdict == "bounded_trend"
            ),
        }
    )

    shift = constructions.truncated_shift(config.dim)
    shift_frame = make_frame(np.eye(config.dim, dtype=np.complex128))
    diag_sums = [criteria.sum_diag(shift, shift_frame, p) for p in config.p_grid]
    # ||shift||_p^p as the sum of s^p itself: its 1/p-th root overflows for small p
    shift_values = svd(shift).singular_values
    gaps = np.array([_power_sum(shift_values, p) - (config.dim - 1) for p in config.p_grid])
    norm_ok = bool(_verdict(gaps, 0.0, 0.0, CERTIFICATE_TOL, config.dim)[1].all())
    records.append(
        {
            "tag": "shift_diag_vanishing",
            "dim": config.dim,
            "max_diag_sum": max(diag_sums),
            "norms_equal_dim_minus_one": norm_ok,
            "passed": max(diag_sums) == 0.0 and norm_ok,
        }
    )

    identity_op = np.eye(config.dim, dtype=np.complex128)
    h = constructions.nonvanishing_direction(identity_op)
    gain = float(abs(np.vdot(h, identity_op @ h)))
    copies = 2000
    aug_frame = constructions.diag_divergence_frame(identity_op, copies)
    gamma = float(np.sum(constructions.log_weight_vector(copies) ** 2))
    bound_dev = max(
        abs(aug_frame.lower_bound - 1.0), abs(aug_frame.upper_bound - (1.0 + gamma))
    )
    # appended-vector pairings are gain/(n log^2(n+1)); at p = 1/2 their
    # p-th powers are sqrt(gain) times the log-weight terms
    tail_terms = np.sqrt(gain) * constructions.log_weight_vector(grid[-1])
    tail_series = constructions.growth_series(tail_terms, grid)
    head = {
        "tag": "diag_divergence_frame",
        "p": 0.5,
        "dim": config.dim,
        "copies": copies,
        "bound_closed_form_dev": bound_dev,
    }
    passed = bound_dev <= IDENTITY_TOL * (1.0 + gamma) and tail_series.verdict == "divergent_trend"
    records.append(_growth_record(exports, head, tail_series, passed=passed))

    demo = constructions.divergence_demo_double_sum(min(4 * config.dim, 64), 1.0, grid)
    sv = svd(demo.matrix).singular_values
    expected_sv = 2.0 ** (-np.arange(1, sv.size + 1, dtype=float))
    sv_dev = float(np.max(np.abs(sv - expected_sv)))
    head = {"tag": "double_sum_growth", "p": 1.0, "norm_series_verdict": demo.norm_series.verdict}
    passed = (
        demo.norm_series.verdict == "bounded_trend"
        and demo.double_series.verdict == "divergent_trend"
        and sv_dev <= SV_TOL * sv.size * np.finfo(float).eps * sv[0]
    )
    records.append(
        _growth_record(exports, head, demo.double_series, singular_value_dev=sv_dev, passed=passed)
    )

    return CampaignReport(
        _echo(config, "counterexamples"), records, time.perf_counter() - start, exports
    )


def run_bergman(config: CampaignConfig) -> CampaignReport:
    """Kernel-integral, subharmonicity, and sampling-frame experiments."""
    from . import bergman
    sub_ps = [p for p in config.p_grid if p <= SUBHARMONICITY_P_MAX]
    if not sub_ps:
        raise ValueError(
            f"p_grid has no entry at or below {SUBHARMONICITY_P_MAX}, the largest p at which "
            f"bergman checks subharmonicity; its least entry is p = {min(config.p_grid)}"
        )
    start = time.perf_counter()
    records: list[dict] = []
    degree = config.dim

    ortho_quad = bergman.disk_quadrature(max(16, degree), max(16, 2 * degree), 1.0 - 1e-9)
    gram = bergman.monomial_gram(ortho_quad, degree)
    ortho_dev = float(np.max(np.abs(gram - np.eye(degree))))
    records.append(
        {
            "tag": "monomial_orthonormality",
            "degree": degree,
            "max_dev": ortho_dev,
            "passed": ortho_dev <= ORTHONORMALITY_TOL,
        }
    )

    diag_t = np.diag(2.0 ** -np.arange(degree)).astype(np.complex128)
    for rmax in (0.9, 0.99, config.rmax):
        for n_radial in (16, 64):
            quad = bergman.disk_quadrature(n_radial, max(64, 2 * degree), rmax)
            rep = bergman.hs_identity_check(diag_t, quad)
            head = {"tag": "hs_identity", "rmax": rmax, "n_radial": n_radial}
            records.append({**head, **asdict(rep)})

    sub_seeds = [config.seed + 500 + i for i in range(min(5, config.trials))]
    sub_ts = [random_operator(degree, seed) for seed in sub_seeds]
    sub_reports = bergman._subharmonicity(sub_ts, sub_ps, grid_step=0.02, rmax=0.9)
    for seed, reports in zip(sub_seeds, sub_reports):
        for p, rep in zip(sub_ps, reports):
            records.append(
                {
                    "tag": "subharmonicity",
                    "seed": seed,
                    "p": p,
                    "min_laplacian": rep.min_laplacian,
                    "tolerance": rep.tolerance,
                    "passed": rep.passed,
                }
            )

    export_quad = bergman.disk_quadrature(16, 32, config.rmax)
    write_nodes = serialization.write_nodes_csv
    exports = {
        "quadrature_nodes.csv": partial(
            write_nodes, points=export_quad.nodes, weights=export_quad.weights_da
        )
    }
    quad_coarse = bergman.disk_quadrature(32, max(64, 2 * degree), config.rmax)
    quad_fine = bergman.disk_quadrature(64, max(128, 4 * degree), config.rmax)
    t_probe = random_operator(degree, config.seed + 999)
    lattices = [bergman.r_lattice(separation, 0.95) for separation in (0.3, 0.5)]
    chains_c = bergman._sampling_comparisons(t_probe, 2.0, quad_coarse, lattices)
    chains_f = bergman._sampling_comparisons(t_probe, 2.0, quad_fine, lattices)
    for lattice, chain_c, chain_f in zip(lattices, chains_c, chains_f):
        separation = lattice.separation
        exports[f"lattice_sep{separation}.csv"] = partial(write_nodes, points=lattice.points)
        frame = bergman.sampling_frame(lattice, degree)
        cert = certify_synthesis(frame, seed=config.seed)
        stability = abs(chain_c.constant - chain_f.constant) / max(1e-300, chain_f.constant)
        records.append(
            {
                "tag": "sampling_frame",
                "separation": separation,
                "measured_separation": lattice.measured_separation,
                "points": int(lattice.points.size),
                "degree": degree,
                "lower_bound": frame.lower_bound,
                "upper_bound": frame.upper_bound,
                "condition": frame.condition,
                "chain_constant": chain_f.constant,
                "chain_stability": stability,
                "passed": lattice.measured_separation >= separation
                and cert.passed
                and np.isfinite(chain_f.constant)
                and stability <= CHAIN_STABILITY_TOL,
            }
        )

    return CampaignReport(_echo(config, "bergman"), records, time.perf_counter() - start, exports)


def run_norm_estimate(matrix_file, p: float, strategy: str, config: CampaignConfig) -> CampaignReport:
    """Exact Schatten norm and frame-ensemble brackets for a stored matrix."""
    from . import criteria
    start = time.perf_counter()
    _check_p(p)
    if strategy not in ("singular_basis_exact", "frame_ensemble"):
        raise ValueError(f"unknown strategy {strategy!r}")
    # one decomposition gives the norm, the witness and the certificate
    job = criteria._norm_job(serialization.read_matrix(matrix_file), [p])
    norm_pth_power = float(_power_sum(job.spectrum, p))
    norm = _pth_root(norm_pth_power, p)
    record = dict(
        tag="norm_estimate", strategy=strategy, p=p, norm=norm, norm_pth_power=norm_pth_power
    )
    if strategy == "singular_basis_exact":
        witness, ok = criteria._witness(job, p, norm_pth_power)
        record.update(witness_sum=witness, gap=witness - norm_pth_power, passed=ok)
    else:
        cert = criteria._certified(job, config.trials, config.seed)
        gap = cert.norm_value - cert.extremal_value
        record.update(ensemble_extremal=cert.extremal_value, gap=gap)
        record.update(direction=cert.direction, passed=cert.passed)
    echo = _echo(config, "norm-estimate", strategy)
    return CampaignReport(echo, [record], time.perf_counter() - start)
