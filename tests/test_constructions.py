"""Counterexample constructions and growth diagnostics."""

import re

import numpy as np
import pytest

from schattenframes.bergman import (
    disk_quadrature,
    monomial_gram,
    r_lattice,
    sampling_frame,
    subharmonicity_check,
)
from schattenframes.constructions import (
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
from schattenframes.criteria import sum_diag, sum_norms
from schattenframes.frames import (
    FrameEnsemble,
    certify_synthesis,
    make_frame,
    random_frame,
    random_onb,
)
from schattenframes.linalg import inner, schatten_norm, svd

GRID = (100, 1_000, 10_000, 100_000)


class TestLogWeightVector:
    def test_first_entries(self):
        h = log_weight_vector(2)
        assert h[0] == pytest.approx(1.0 / np.log(2.0))
        assert h[1] == pytest.approx(1.0 / (np.sqrt(2.0) * np.log(3.0)))

    def test_norm_monotone_and_stabilizing(self):
        norms = [np.linalg.norm(log_weight_vector(d)) for d in (10, 100, 1000, 10000)]
        assert all(a <= b for a, b in zip(norms, norms[1:]))
        assert norms[-1] - norms[-2] < 0.01 * norms[-2]

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            log_weight_vector(0)


class TestDivergenceDemoSumNorms:
    def test_matches_explicit_operator(self):
        # dual route: closed-form partial sums vs literal rank-one matrix
        d = 50
        h = log_weight_vector(d)
        t = np.outer(h, h.conj())
        basis = make_frame(np.eye(d))
        explicit = sum_norms(t, basis, 1.0)
        series = divergence_demo_sum_norms(1.0, (10, d))
        assert series.partial_sums[-1] == pytest.approx(explicit, rel=1e-12)

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 1.9])
    def test_divergent_verdicts(self, p):
        assert divergence_demo_sum_norms(p, GRID).verdict == "divergent_trend"

    def test_growth_ordering(self):
        fast = divergence_demo_sum_norms(1.0, GRID)
        slow = divergence_demo_sum_norms(1.9, GRID)
        ratio_fast = fast.partial_sums[-1] / fast.partial_sums[0]
        ratio_slow = slow.partial_sums[-1] / slow.partial_sums[0]
        assert ratio_slow < ratio_fast

    @pytest.mark.parametrize("p", [2.0, 2.5])
    def test_rejects_large_p(self, p):
        with pytest.raises(ValueError, match="0 < p < 2"):
            divergence_demo_sum_norms(p, GRID)

    def test_control_series_bounded(self):
        control = log_weight_norm_series(GRID)
        assert control.verdict == "bounded_trend"
        # partial sums stabilize: successive ratios approach 1
        s = control.partial_sums
        assert s[-1] / s[-2] == pytest.approx(1.0, abs=0.01)


class TestGrowthSeries:
    def test_rejects_decreasing_truncations(self):
        with pytest.raises(ValueError, match="increasing"):
            growth_series(np.ones(100), (50, 50))

    def test_rejects_negative_terms(self):
        with pytest.raises(ValueError, match="nonnegative"):
            growth_series(np.array([-1.0, 1.0]), (1, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_terms(self, bad):
        terms = np.ones(10)
        terms[3] = bad
        message = f"terms must be finite, got terms[3] = {bad}"
        with pytest.raises(ValueError, match=re.escape(message)):
            growth_series(terms, (5, 10))

    def test_geometric_series_bounded(self):
        terms = 0.5 ** np.arange(1, 101, dtype=float)
        assert growth_series(terms, (10, 20, 50, 100)).verdict == "bounded_trend"

    def test_harmonic_series_divergent(self):
        n = np.arange(1, GRID[-1] + 1, dtype=float)
        assert growth_series(1.0 / n, GRID).verdict == "divergent_trend"

    def test_increment_ratios_shape(self):
        series = growth_series(np.ones(100), (10, 20, 40, 80))
        assert series.increment_ratios.shape == (2,)


class TestScaledCopiesFrame:
    def test_cubic_spec_exact_arithmetic(self):
        built = scaled_copies_frame(3.0, 3.0, 24)
        n = np.arange(1, 25, dtype=float)
        np.testing.assert_allclose(built.scales, 1.0 / n, rtol=1e-15)
        np.testing.assert_array_equal(built.counts, n**2)
        products = built.counts * built.scales**2
        assert np.max(np.abs(products - 1.0)) <= 1e-14

    def test_power_sum_identity(self):
        built = scaled_copies_frame(3.0, 3.0, 24)
        lhs, rhs = built.power_sum_identity()
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_frame_bounds_within_bracket(self):
        built = scaled_copies_frame(4.0, 2.0, 16)
        assert 0.5 - 1e-12 <= built.frame.lower_bound
        assert built.frame.upper_bound <= 2.0 + 1e-12

    def test_growth_contrast(self):
        # sum values^p diverges (harmonic), sum values^(p+eps) converges
        n = np.arange(1, GRID[-1] + 1, dtype=float)
        p, eps = 3.0, 3.0
        divergent = growth_series(n ** (-1.0), GRID)
        convergent = growth_series(n ** (-(p + eps) / p), GRID)
        assert divergent.verdict == "divergent_trend"
        assert convergent.verdict == "bounded_trend"

    def test_rejects_small_p(self):
        with pytest.raises(ValueError, match="p > 2"):
            scaled_copies_frame(2.0, 1.0, 4)

    @pytest.mark.parametrize(
        "p, epsilon, message",
        [
            (np.nan, 3.0, "p must be finite and positive, got nan"),
            (np.inf, 3.0, "p must be finite and positive, got inf"),
            (3.0, np.nan, "epsilon must be finite and positive, got nan"),
            (3.0, np.inf, "epsilon must be finite and positive, got inf"),
            (3.0, 0.0, "epsilon must be finite and positive, got 0.0"),
            (2.0001, 3.0, "underflow at p = 2.0001, epsilon = 3.0"),
            # finite scales whose copy counts, near 1e77 and 1e256, have no index
            (2.5, 30.0, "the copy count 7.923e+76 at p = 2.5, epsilon = 30.0 exceeds"),
            (2.5, 100.0, "the copy count 2.136e+256 at p = 2.5, epsilon = 100.0 exceeds"),
        ],
        ids=[
            "nan-p", "inf-p", "nan-epsilon", "inf-epsilon", "zero-epsilon", "underflow",
            "huge-count", "huger-count",
        ],
    )
    def test_rejects_bad_exponents_by_name(self, p, epsilon, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            scaled_copies_frame(p, epsilon, 40)


class TestNonvanishingDirection:
    def test_generic_operator_uses_top_vector(self):
        t = np.diag([3.0, 1.0]).astype(complex)
        h = nonvanishing_direction(t)
        assert abs(inner(t @ h, h)) > 1.0

    def test_shift_falls_back_to_mixtures(self):
        t = truncated_shift(2)
        h = nonvanishing_direction(t)
        assert abs(inner(t @ h, h)) == pytest.approx(0.5)

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="zero"):
            nonvanishing_direction(np.zeros((2, 2)))


class TestDiagDivergenceFrame:
    def test_closed_form_terms(self):
        t = np.eye(2, dtype=complex)
        frame = diag_divergence_frame(t, 3)
        n = np.arange(1, 4, dtype=float)
        expected = 1.0 / (n * np.log(n + 1.0) ** 2)
        pairings = np.real(
            np.einsum("in,in->n", frame.vectors[:, 2:].conj(), t @ frame.vectors[:, 2:])
        )
        np.testing.assert_allclose(pairings, expected, rtol=1e-12)

    def test_bounds_closed_form(self):
        t = np.eye(2, dtype=complex)
        copies = 50
        frame = diag_divergence_frame(t, copies)
        gamma = float(np.sum(log_weight_vector(copies) ** 2))
        assert frame.lower_bound == pytest.approx(1.0, abs=1e-10)
        assert frame.upper_bound == pytest.approx(1.0 + gamma, rel=1e-10)

    def test_half_power_sums_diverge(self):
        t = np.eye(3, dtype=complex)
        frame = diag_divergence_frame(t, 200)
        partials = []
        for copies in (10, 50, 200):
            sub = make_frame(frame.vectors[:, : 3 + copies])
            partials.append(sum_diag(t, sub, 0.5))
        assert partials[0] < partials[1] < partials[2]
        # closed form: terms are the log-weight entries themselves at p = 1/2
        series = growth_series(log_weight_vector(GRID[-1]), GRID)
        assert series.verdict == "divergent_trend"


class TestTruncatedShift:
    def test_matrix_small(self):
        np.testing.assert_allclose(truncated_shift(2), [[0.0, 0.0], [1.0, 0.0]])

    def test_diag_sums_vanish_but_norm_grows(self):
        d = 6
        shift = truncated_shift(d)
        basis = make_frame(np.eye(d))
        for p in (0.5, 1.0, 2.0, 4.0):
            assert sum_diag(shift, basis, p) == 0.0
            assert schatten_norm(shift, p) ** p == pytest.approx(d - 1, rel=1e-12)

    def test_operator_norm_one(self):
        assert np.linalg.norm(truncated_shift(5), 2) == pytest.approx(1.0)


class TestDoubleSumDemo:
    def test_reflector_properties(self):
        demo = divergence_demo_double_sum(64, 1.0, (100, 1000))
        # row n of the matrix is 2^-n times row n of U, a power of two, so U comes back exactly
        u = demo.matrix / 2.0 ** -np.arange(1, 65, dtype=float)[:, None]
        np.testing.assert_allclose(u.conj().T @ u, np.eye(64), atol=1e-12)
        h1 = log_weight_vector(64)
        h1 /= np.linalg.norm(h1)
        np.testing.assert_allclose(u[:, 0], h1, atol=1e-12)

    def test_singular_values_geometric(self):
        demo = divergence_demo_double_sum(64, 1.0, (100, 1000))
        expected = 2.0 ** -np.arange(1, 65, dtype=float)
        np.testing.assert_allclose(svd(demo.matrix).singular_values, expected, atol=1e-12)

    def test_closed_form_matches_explicit_matrix(self):
        # dual route: O(d) column-sum formula vs literal entrywise sum
        for p in (0.5, 1.0, 1.5):
            demo = divergence_demo_double_sum(200, p, (100, 200))
            explicit = float(np.sum(np.abs(demo.matrix) ** p))
            assert demo.double_series.partial_sums[-1] == pytest.approx(explicit, rel=1e-12)

    def test_verdicts(self):
        demo = divergence_demo_double_sum(16, 1.0, GRID)
        assert demo.norm_series.verdict == "bounded_trend"
        assert demo.double_series.verdict == "divergent_trend"
        assert np.all(np.diff(demo.double_series.partial_sums) > 0)

    def test_norm_partial_sums_bounded_by_geometric_limit(self):
        demo = divergence_demo_double_sum(16, 1.0, GRID)
        assert demo.norm_series.partial_sums[-1] <= 1.0

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError, match="0 < p < 2"):
            divergence_demo_double_sum(16, 2.0, GRID)


#: Counts, truncation grids, condition targets and seeds across the library;
#: each error names the input.
BAD_INPUTS = {
    "sampling_frame-degree": ("d", lambda: sampling_frame(r_lattice(0.5, 0.9), 2.5)),
    "log_weight_vector-d": ("d", lambda: log_weight_vector(2.5)),
    "diag_divergence_frame-copies": ("copies", lambda: diag_divergence_frame(np.eye(2), 2.5)),
    "truncated_shift-d": ("d", lambda: truncated_shift(2.5)),
    "scaled_copies_frame-n_terms": ("n_terms", lambda: scaled_copies_frame(3.0, 1.0, 2.5)),
    "double_sum-d": ("d", lambda: divergence_demo_double_sum(2.5, 1.0, (2, 4))),
    "double_sum-grid": ("d_grid", lambda: divergence_demo_double_sum(4, 1.0, (2.5, 4))),
    "sum_norms-zero-truncation": ("d_grid", lambda: divergence_demo_sum_norms(1.0, (0, 5))),
    "control_series-float-truncation": ("d_grid", lambda: log_weight_norm_series((2.5, 5))),
    "growth_series-float-truncation": ("truncations", lambda: growth_series(np.ones(5), (2.5, 5))),
    "random_frame-zero-dim": ("dim", lambda: random_frame(0, 0, 100.0, 0)),
    "random_frame-negative-dim": ("dim", lambda: random_frame(-1, 2, 100.0, 0)),
    "random_frame-float-count": ("count", lambda: random_frame(2, 2.5, 100.0, 0)),
    "random_frame-nan-target": ("condition_target", lambda: random_frame(2, 3, np.nan, 0)),
    "random_onb-float-dim": ("dim", lambda: random_onb(2.5, 0)),
    "ensemble-float-trials": ("trials", lambda: FrameEnsemble(2, 2.5, 0)),
    "ensemble-bool-trials": ("trials", lambda: FrameEnsemble(2, True, 0)),
    "random_onb-float-seed": ("seed", lambda: random_onb(2, 1.5)),
    "random_onb-negative-seed": ("seed", lambda: random_onb(2, -1)),
    "random_frame-negative-seed": ("seed", lambda: random_frame(2, 3, 100.0, -1)),
    "ensemble-negative-seed": ("seed", lambda: FrameEnsemble(2, 2, -1)),
    "ensemble-bool-seed": ("seed", lambda: FrameEnsemble(2, 2, True)),
    "synthesis-negative-seed": ("seed", lambda: certify_synthesis(random_onb(2, 0), seed=-1)),
    "synthesis-float-seeds": (
        "seed",
        lambda: certify_synthesis(next(iter(FrameEnsemble(2, 2, 0))).raw, seed=[1.5]),
    ),
}


@pytest.mark.parametrize("name, call", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_count_grid_or_target_is_named(name, call):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call()


#: Real parameters that numpy would refuse unnamed (a str compared with a number
#: is a TypeError; a negative degree is numpy's "negative dimensions") or accept
#: silently (degree 0 makes an empty Gram matrix); each error names the input.
UNNAMED_REALS = {
    "monomial_gram-zero-degree": ("degree", lambda: monomial_gram(disk_quadrature(2, 2, 0.5), 0)),
    "monomial_gram-negative-degree": (
        "degree", lambda: monomial_gram(disk_quadrature(2, 2, 0.5), -1)
    ),
    "monomial_gram-float-degree": (
        "degree", lambda: monomial_gram(disk_quadrature(2, 2, 0.5), 2.5)
    ),
    "monomial_gram-bool-degree": (
        "degree", lambda: monomial_gram(disk_quadrature(2, 2, 0.5), True)
    ),
    "sum_norms_demo-str-p": ("p", lambda: divergence_demo_sum_norms("1", (2, 4))),
    "double_sum_demo-str-p": ("p", lambda: divergence_demo_double_sum(4, "1", (2, 4))),
    "disk_quadrature-str-rmax": ("rmax", lambda: disk_quadrature(2, 2, "0.5")),
    "subharmonicity-str-rmax": ("rmax", lambda: subharmonicity_check(np.eye(2), 1.0, 0.1, "0.5")),
    "subharmonicity-str-step": (
        "grid_step", lambda: subharmonicity_check(np.eye(2), 1.0, "0.1", 0.5)
    ),
    "r_lattice-str-separation": ("separation", lambda: r_lattice("0.5", 0.9)),
    "r_lattice-str-rmax": ("rmax", lambda: r_lattice(0.5, "0.9")),
    "scaled_copies-str-epsilon": ("epsilon", lambda: scaled_copies_frame(3.0, "1", 4)),
    "random_frame-str-target": ("condition_target", lambda: random_frame(2, 3, "100", 0)),
}


@pytest.mark.parametrize("name, call", UNNAMED_REALS.values(), ids=UNNAMED_REALS.keys())
def test_real_parameter_of_the_wrong_kind_is_named(name, call):
    with pytest.raises(ValueError, match=f"^{name} must"):
        call()
