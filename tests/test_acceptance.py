"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here; the slack every library certificate is
judged at, `CERTIFICATE_TOL`, is pinned to 1e-9 below.
"""

import json

import numpy as np
import pytest

from schattenframes.bergman import (
    disk_quadrature,
    hs_identity_check,
    integral_criterion,
    r_lattice,
    sampling_frame,
    subharmonicity_check,
)
from schattenframes.campaigns import (
    CampaignConfig,
    random_operator,
    random_psd,
    run_verify_theorems,
)
from schattenframes.constructions import (
    diag_divergence_frame,
    divergence_demo_double_sum,
    divergence_demo_sum_norms,
    log_weight_norm_series,
    scaled_copies_frame,
    truncated_shift,
)
from schattenframes.criteria import double_sum_comparison, sum_diag, sum_norms, weighted_sum
from schattenframes.frames import (
    canonical_parseval,
    certify_synthesis,
    make_frame,
    random_frame,
    random_onb,
    rescale_lower_bound_one,
    rescale_upper_bound_one,
)
from schattenframes.linalg import CERTIFICATE_TOL, inner, psd_power, schatten_norm, svd

assert CERTIFICATE_TOL == 1e-9

DIM = 8
PAIRS = 200
GRID = (100, 1_000, 10_000, 100_000)


def announce(number, label):
    print(f"[criterion {number:2d}] {label}: PASS")


def ensemble_pairs(count=PAIRS, dim=DIM, seed=0):
    """The seeded (operator, frame) pairs shared by criteria 2-4."""
    for i in range(count):
        t = random_operator(dim, seed + i)
        frame = random_frame(dim, dim + (i % dim) + 1, 100.0, 10_000 + seed + i)
        yield t, frame


def test_criterion_01_singular_basis_exactness():
    for i in range(PAIRS):
        t = random_operator(DIM, i)
        basis = make_frame(svd(t).right_vectors)
        for p in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0):
            expected = schatten_norm(t, p) ** p
            value = sum_norms(t, basis, p)
            assert abs(value - expected) <= 1e-9 * expected, (i, p)
    announce(1, "singular-basis norm sums exact")


def test_criterion_02_direction_tests():
    violations = 0
    for t, frame in ensemble_pairs():
        upper_one = rescale_upper_bound_one(frame)
        parseval = canonical_parseval(frame)
        for p in (3.0, 4.0):
            bound = schatten_norm(t, p) ** p
            if sum_norms(t, upper_one, p) > bound + 1e-9:
                violations += 1
        for p in (0.5, 1.0, 1.5):
            bound = schatten_norm(t, p) ** p
            if sum_norms(t, parseval, p) < bound - 1e-9:
                violations += 1
    assert violations == 0
    announce(2, "sup/inf directions, zero violations over 200 pairs")


def test_criterion_03_hs_exact_identity():
    for t, frame in ensemble_pairs(seed=1):
        lhs = sum_norms(t, frame, 2.0)
        rhs = float(np.real(np.trace(t.conj().T @ t @ frame.frame_operator)))
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)
        parseval = canonical_parseval(frame)
        hs_sq = schatten_norm(t, 2.0) ** 2
        assert abs(sum_norms(t, parseval, 2.0) - hs_sq) <= 1e-10 * hs_sq
    announce(3, "p = 2 trace identity exact over 200 pairs")


def test_criterion_04_double_sum_constants():
    for i, (t, frame) in enumerate(ensemble_pairs(seed=2)):
        for p in (0.5, 1.0, 2.0, 3.0, 4.0):
            comp = double_sum_comparison(t, frame, p)
            assert comp.passed, (i, p)
        parseval = canonical_parseval(frame)
        comp2 = double_sum_comparison(t, parseval, 2.0)
        assert abs(comp2.double_sum - comp2.norm_sum) <= 1e-10 * comp2.norm_sum
    announce(4, "double-sum bounds with explicit frame-bound constants")


def test_criterion_05_weighted_lower_bound():
    for i in range(PAIRS):
        t = random_psd(DIM, 20_000 + i)
        frame = rescale_lower_bound_one(random_frame(DIM, DIM + (i % DIM) + 1, 100.0, 30_000 + i))
        assert frame.lower_bound >= 1.0 - 1e-12
        for p in (0.5, 1.0):
            bound = schatten_norm(t, p) ** p
            value = weighted_sum("weighted_diag", t, frame, p)
            assert value >= bound - 1e-9, (i, p)
            eigen = make_frame(svd(t).right_vectors)
            witness = weighted_sum("weighted_diag", t, eigen, p)
            assert abs(witness - bound) <= 1e-9 * max(1.0, bound), (i, p)
    announce(5, "weighted diagonal sums bounded below with eigenbasis equality")


def test_criterion_06_jensen_inequality():
    rng = np.random.default_rng(77)
    for i in range(500):
        t = random_psd(DIM, 40_000 + i)
        e = rng.standard_normal(DIM) + 1j * rng.standard_normal(DIM)
        e /= np.linalg.norm(e)
        pairing = inner(t @ e, e).real
        for p in (0.25, 0.5, 0.75, 1.0):
            lhs = inner(psd_power(t, p) @ e, e).real
            assert lhs <= pairing**p + 1e-10, (i, p)
    announce(6, "operator Jensen inequality on 500 seeded pairs")


def test_criterion_07_counterexample_growth():
    for p in (0.5, 1.0, 1.5, 1.9):
        assert divergence_demo_sum_norms(p, GRID).verdict == "divergent_trend", p
    assert log_weight_norm_series(GRID).verdict == "bounded_trend"

    built = scaled_copies_frame(3.0, 3.0, 32)
    products = built.counts * built.scales**2
    assert np.max(np.abs(products - 1.0)) <= 1e-14
    lhs, rhs = built.power_sum_identity()
    assert abs(lhs - rhs) <= 1e-12 * rhs

    demo = divergence_demo_double_sum(32, 1.0, GRID)
    assert demo.norm_series.verdict == "bounded_trend"
    assert demo.double_series.verdict == "divergent_trend"
    announce(7, "growth verdicts for all divergence constructions")


def test_criterion_08_shift_positivity_hypothesis():
    shift = truncated_shift(DIM)
    basis = make_frame(np.eye(DIM))
    for p in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0):
        assert sum_diag(shift, basis, p) == 0.0
        norm_p = schatten_norm(shift, p) ** p
        assert abs(norm_p - (DIM - 1)) <= 1e-9 * DIM
    announce(8, "shift has vanishing diagonal sums but norm d-1")


def test_criterion_09_bergman_hs_identity():
    t = np.diag([1.0, 0.5, 0.25, 0.125]).astype(complex)
    quad = disk_quadrature(64, 64, 0.995)
    value = integral_criterion(t, 2.0, quad)
    modes = np.arange(4)
    closed = float(np.sum(np.diag(t).real ** 2 * 0.995 ** (2 * modes + 2)))
    assert abs(value - closed) <= 1e-3 * closed
    report = hs_identity_check(t, quad)
    assert report.pointwise_dev <= 1e-12
    announce(9, "kernel-integral matches per-mode closed form")


def test_criterion_10_subharmonicity():
    for i in range(20):
        t = random_operator(DIM, 50_000 + i)
        for p in (0.5, 1.0, 2.0, 3.0):
            report = subharmonicity_check(t, p, grid_step=0.01, rmax=0.9)
            assert report.min_laplacian >= -report.tolerance, (i, p)
    announce(10, "discrete Laplacian of kernel norms nonnegative")


def test_criterion_11_synthesis_certificates():
    frames = []
    for i in range(50):
        base = random_frame(DIM, DIM + (i % DIM) + 1, 100.0, 60_000 + i)
        frames += [
            base,
            canonical_parseval(base),
            rescale_upper_bound_one(base),
            rescale_lower_bound_one(base),
            random_onb(DIM, 61_000 + i),
        ]
    angles = np.array([0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])
    frames.append(make_frame(np.vstack([np.cos(angles), np.sin(angles)])))
    frames.append(make_frame([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    frames.append(scaled_copies_frame(3.0, 3.0, 16).frame)
    frames.append(diag_divergence_frame(np.eye(4, dtype=complex), 100))
    frames.append(sampling_frame(r_lattice(0.4, 0.95), 6))
    for k, frame in enumerate(frames):
        cert = certify_synthesis(frame, seed=k)
        assert cert.passed, (k, cert.failures)
        assert cert.lower_bound > 0
        assert cert.lower_bound - 1e-9 <= cert.op_norm_sq <= cert.upper_bound + 1e-9
    announce(11, f"synthesis certificates pass for all {len(frames)} frames")


def test_criterion_12_determinism():
    config = CampaignConfig()
    first = run_verify_theorems(config).numeric_content()
    second = run_verify_theorems(config).numeric_content()
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    assert all(rec.get("passed", False) for rec in first["records"])
    announce(12, "verify-theorems reports are reproducible")
