"""Seeded verification campaigns: each command runs a battery of checks and
emits a deterministic report (JSON plus per-check CSV tables).

Reports are reproducible: given the same config (seed included) the numeric
content is identical across runs; only the wall-time field varies.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import bergman, constructions, criteria, serialization
from .frames import (
    Frame,
    FrameEnsemble,
    canonical_parseval,
    certify_synthesis,
    make_frame,
    rescale_upper_bound_one,
)
from .linalg import _check_p, schatten_norm, svd

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


def _is_real(value) -> bool:
    """True for int and float values (numpy scalars included), False for bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass
class CampaignConfig:
    """Parameters shared by all campaign commands."""

    command: str
    seed: int = 0
    dim: int = 8
    trials: int = 200
    p_grid: tuple[float, ...] = DEFAULT_P_GRID
    tolerances: dict = field(default_factory=dict)
    rmax: float = 0.995
    output_dir: str | None = None

    def __post_init__(self):
        for name in ("seed", "dim", "trials"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not (
            isinstance(self.p_grid, (list, tuple))
            and self.p_grid
            and all(_is_real(p) and 0 < p < math.inf for p in self.p_grid)
        ):
            raise ValueError(
                f"p_grid must be a nonempty list of finite positive numbers, got {self.p_grid!r}"
            )
        self.p_grid = tuple(float(p) for p in self.p_grid)
        if not (_is_real(self.rmax) and 0 < self.rmax < 1):
            raise ValueError(f"rmax must be a number in (0, 1), got {self.rmax!r}")
        if not (
            isinstance(self.tolerances, dict)
            and all(_is_real(v) and 0 < v < math.inf for v in self.tolerances.values())
        ):
            raise ValueError(
                f"tolerances must map names to finite positive numbers, got {self.tolerances!r}"
            )
        unknown = [name for name in self.tolerances if name != "certificate"]
        if unknown:
            raise ValueError(f"tolerances has unknown names {unknown}; known: ['certificate']")
        if not isinstance(self.output_dir, (str, type(None))):
            raise ValueError(f"output_dir must be a path string, got {self.output_dir!r}")

    def tol(self, name: str, default: float) -> float:
        return float(self.tolerances.get(name, default))


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
    schema_version: int = SCHEMA_VERSION
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
                "schema_version": self.schema_version,
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
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    ) / np.sqrt(2.0)


def random_hermitian(dim: int, seed: int) -> np.ndarray:
    g = random_operator(dim, seed)
    return 0.5 * (g + g.conj().T)


def random_psd(dim: int, seed: int) -> np.ndarray:
    g = random_operator(dim, seed)
    return (g @ g.conj().T) / dim


def _enclosure_records(config: CampaignConfig, tol: float) -> list[dict]:
    """One double_sum_enclosure record per p, over seeded (operator, frame) pairs.

    Pair i is random_operator(dim, seed + 1000 + i) with the raw frame of
    trial i of a FrameEnsemble on seed + 2000; the pairs are built once and
    every p is evaluated on them.
    """
    pairs = FrameEnsemble(config.dim, min(config.trials, 200), config.seed + 2000)
    operators = [
        np.stack([random_operator(config.dim, config.seed + 1000 + i) for i in group.indices])
        for group in pairs.groups
    ]
    records = []
    for p in config.p_grid:
        upper, lower, passed = [], [], True
        for ops, group in zip(operators, pairs.groups):
            comp = criteria.double_sum_comparison(ops, group.raw, p, tol)
            passed = passed and bool(np.all(comp.passed))
            lhs, rhs = comp.double_sum, comp.norm_sum
            scale = np.maximum(1.0, lhs)
            if comp.upper_constant is not None:
                upper.append(np.min((comp.upper_constant * rhs - lhs) / scale))
            if comp.lower_constant is not None:
                lower.append(np.min((lhs - comp.lower_constant * rhs) / scale))
        records.append(
            {
                "tag": "double_sum_enclosure",
                "p": p,
                "trials": pairs.trials,
                "min_upper_margin": float(min(upper)) if upper else None,
                "min_lower_margin": float(min(lower)) if lower else None,
                "tolerance": tol,
                "passed": passed,
            }
        )
    return records


def run_verify_theorems(config: CampaignConfig) -> CampaignReport:
    """Execute every certificate family over one seeded FrameEnsemble."""
    start = time.perf_counter()
    dim, trials, seed = config.dim, config.trials, config.seed
    tol = config.tol("certificate", 1e-9)
    records: list[dict] = []

    general = random_operator(dim, seed + 11)
    hermitian = random_hermitian(dim, seed + 22)
    psd = random_psd(dim, seed + 33)

    enclosures = _enclosure_records(config, tol)
    ensemble = FrameEnsemble(dim, trials, seed)
    # each certificate runs once over the exponents of the grid it applies to;
    # the records of one p are its certificates in this order, then its enclosure
    diag = criteria.certify_diag_formula
    checks = [
        (criteria.certify_norm_formula, general, lambda p: True),
        (partial(diag, direction="sup_below"), hermitian, lambda p: p >= 1),
        (partial(diag, direction="inf_above"), psd, lambda p: p <= 1),
        (criteria.certify_double_formula, general, lambda p: p >= 2),
        (criteria.certify_double_formula, hermitian, lambda p: p <= 2),
    ]
    per_p: list[list[dict]] = [[] for _ in config.p_grid]
    for certify, op, applies in checks:
        at = [j for j, p in enumerate(config.p_grid) if applies(p)]
        if at:
            grid = [config.p_grid[j] for j in at]
            for j, rep in zip(at, certify(op, grid, tol=tol, ensemble=ensemble)):
                per_p[j].append(asdict(rep))
    for certificates, enclosure in zip(per_p, enclosures):
        records += certificates + [enclosure]

    for tag, op in (("trace_endpoint", psd), ("hs_endpoint", general)):
        rep = criteria.endpoint_suites(op, tol=tol, ensemble=ensemble)
        records.append({"tag": tag, **asdict(rep)})

    synth_ok = True
    worst_dev = 0.0
    n_frames = 0
    for group in ensemble.groups:
        # the three variants of a trial share its probe seed
        seeds = [seed + i for i in group.indices] * 3
        for stack in (group.onb, group.raw):
            variants = [stack, canonical_parseval(stack), rescale_upper_bound_one(stack)]
            cert = certify_synthesis(Frame.concat(variants), tol=tol, seed=seeds)
            synth_ok = synth_ok and bool(np.all(cert.passed))
            worst_dev = max(worst_dev, float(np.max(cert.analysis_identity_dev)))
            n_frames += len(seeds)
    records.append(
        {
            "tag": "synthesis_bounds",
            "frames_certified": n_frames,
            "max_analysis_dev": worst_dev,
            "tolerance": tol,
            "passed": synth_ok,
        }
    )

    return CampaignReport(
        config=asdict(config), records=records, wall_time_s=time.perf_counter() - start
    )


def _growth_record(exports: dict, head: dict, series: constructions.GrowthSeries, **tail) -> dict:
    """The keys of `head`, the fields of `series`, then `tail`.

    The series goes to `exports` as growth_<tag>_p<p>.csv.
    """
    name = f"growth_{head['tag']}_p{head['p']}.csv"
    exports[name] = partial(serialization.write_growth_csv, series=series)
    return {**head, **asdict(series), **tail}


def run_counterexamples(config: CampaignConfig) -> CampaignReport:
    """Growth studies for every divergence construction."""
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
                abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)
                and 0.5 <= built.frame.lower_bound
                and built.frame.upper_bound <= 2.0
                and div_series.verdict == "divergent_trend"
                and conv_series.verdict == "bounded_trend"
            ),
        }
    )

    shift = constructions.truncated_shift(config.dim)
    shift_frame = make_frame(np.eye(config.dim, dtype=np.complex128))
    diag_sums = [criteria.sum_diag(shift, shift_frame, p).value for p in config.p_grid]
    norm_ok = all(
        abs(schatten_norm(shift, p) ** p - (config.dim - 1)) <= 1e-9 * config.dim
        for p in config.p_grid
    )
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
    passed = bound_dev <= 1e-10 * (1.0 + gamma) and tail_series.verdict == "divergent_trend"
    records.append(_growth_record(exports, head, tail_series, passed=passed))

    demo = constructions.divergence_demo_double_sum(min(4 * config.dim, 64), 1.0, grid)
    sv = svd(demo.matrix).singular_values
    expected_sv = 2.0 ** (-np.arange(1, sv.size + 1, dtype=float))
    # Weyl: |s_n - 2^-n| <= ||E||_2 for the SVD's backward error E, a modest
    # multiple of n * eps * s_1; c = 10 also covers rounding in forming the matrix
    sv_tol = 10 * sv.size * np.finfo(float).eps * sv[0]
    sv_dev = float(np.max(np.abs(sv - expected_sv)))
    head = {"tag": "double_sum_growth", "p": 1.0, "norm_series_verdict": demo.norm_series.verdict}
    passed = (
        demo.norm_series.verdict == "bounded_trend"
        and demo.double_series.verdict == "divergent_trend"
        and sv_dev <= sv_tol
    )
    records.append(
        _growth_record(exports, head, demo.double_series, singular_value_dev=sv_dev, passed=passed)
    )

    return CampaignReport(
        config=asdict(config),
        records=records,
        wall_time_s=time.perf_counter() - start,
        exports=exports,
    )


def run_bergman(config: CampaignConfig) -> CampaignReport:
    """Kernel-integral, subharmonicity, and sampling-frame experiments."""
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
            "passed": ortho_dev <= 1e-6,
        }
    )

    diag_t = np.diag(2.0 ** -np.arange(degree)).astype(np.complex128)
    for rmax in (0.9, 0.99, config.rmax):
        for n_radial in (16, 64):
            quad = bergman.disk_quadrature(n_radial, max(64, 2 * degree), rmax)
            rep = bergman.hs_identity_check(diag_t, quad)
            head = {"tag": "hs_identity", "rmax": rmax, "n_radial": n_radial}
            records.append({**head, **asdict(rep)})

    sub_ps = [p for p in config.p_grid if p <= 3] or [1.0]
    sub_seeds = [config.seed + 500 + i for i in range(min(5, config.trials))]
    sub_ts = np.stack([random_operator(degree, seed) for seed in sub_seeds])
    sub_reports = bergman.subharmonicity_check(sub_ts, sub_ps, grid_step=0.02, rmax=0.9)
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
    chains_c = bergman.sampling_comparison(t_probe, 2.0, quad_coarse, lattices)
    chains_f = bergman.sampling_comparison(t_probe, 2.0, quad_fine, lattices)
    for lattice, chain_c, chain_f in zip(lattices, chains_c, chains_f):
        separation = lattice.separation
        exports[f"lattice_sep{separation}.csv"] = partial(write_nodes, points=lattice.points)
        frame, frame_rep = bergman.sampling_frame(lattice, degree)
        cert = certify_synthesis(frame, seed=config.seed)
        stability = abs(chain_c.constant - chain_f.constant) / max(1e-300, chain_f.constant)
        records.append(
            {
                "tag": "sampling_frame",
                "separation": separation,
                "measured_separation": lattice.measured_separation,
                "points": int(lattice.points.size),
                "degree": degree,
                "lower_bound": frame_rep.lower_bound,
                "upper_bound": frame_rep.upper_bound,
                "condition": frame_rep.condition,
                "chain_constant": chain_f.constant,
                "chain_stability": stability,
                "passed": lattice.measured_separation >= separation
                and cert.passed
                and np.isfinite(chain_f.constant)
                and stability <= 1e-3,
            }
        )

    return CampaignReport(
        config=asdict(config),
        records=records,
        wall_time_s=time.perf_counter() - start,
        exports=exports,
    )


def run_norm_estimate(matrix_file, p: float, strategy: str, config: CampaignConfig) -> CampaignReport:
    """Exact Schatten norm and frame-ensemble brackets for a stored matrix."""
    start = time.perf_counter()
    _check_p(p)
    if strategy not in ("singular_basis_exact", "frame_ensemble"):
        raise ValueError(f"unknown strategy {strategy!r}")
    t = serialization.read_matrix(matrix_file)
    records: list[dict] = []
    if strategy == "singular_basis_exact":
        # one decomposition gives the norm and the witness basis; the full
        # right factor spans C^cols also when T is wide
        decomposition = svd(t)
        norm_pth_power = float(np.sum(decomposition.singular_values**p))
        norm = norm_pth_power ** (1.0 / p)
        witness = criteria.sum_norms(t, make_frame(decomposition.right_basis), p).value
        gap = witness - norm_pth_power
        records.append(
            {
                "tag": "norm_estimate",
                "strategy": strategy,
                "p": p,
                "norm": norm,
                "norm_pth_power": norm_pth_power,
                "witness_sum": witness,
                "gap": gap,
                "passed": abs(gap) <= config.tol("certificate", 1e-9) * max(1.0, norm_pth_power),
            }
        )
    else:
        cert = criteria.certify_norm_formula(
            t, p, trials=config.trials, seed=config.seed, tol=config.tol("certificate", 1e-9)
        )
        gap = cert.norm_value - cert.extremal_value
        records.append(
            {
                "tag": "norm_estimate",
                "strategy": strategy,
                "p": p,
                "norm": cert.norm_value ** (1.0 / p),
                "norm_pth_power": cert.norm_value,
                "ensemble_extremal": cert.extremal_value,
                "gap": gap,
                "direction": cert.direction,
                "passed": cert.passed,
            }
        )
    return CampaignReport(
        config=asdict(config), records=records, wall_time_s=time.perf_counter() - start
    )
