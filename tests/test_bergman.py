"""Bergman kernels, disk quadrature, hyperbolic lattices, integral criteria."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seeded_operators
from schattenframes import bergman
from schattenframes.bergman import (
    TruncatedBergman,
    bergman_kernel,
    bergman_metric,
    disk_quadrature,
    hs_identity_check,
    integral_criterion,
    kernel_coefficients,
    kernel_truncation_defect,
    min_pairwise_separation,
    monomial_gram,
    r_lattice,
    sampling_comparison,
    sampling_frame,
    subharmonicity_check,
)


class TestKernel:
    def test_center_value(self):
        assert bergman_kernel(0.0, 0.0) == pytest.approx(1.0)

    def test_half_point(self):
        assert bergman_kernel(0.5, 0.5) == pytest.approx(16.0 / 9.0)

    def test_conjugate_symmetry(self, rng):
        for _ in range(10):
            z, w = (rng.uniform(-0.6, 0.6, 2) + 1j * rng.uniform(-0.6, 0.6, 2))
            assert bergman_kernel(z, w) == pytest.approx(np.conj(bergman_kernel(w, z)))

    def test_rejects_boundary(self):
        with pytest.raises(ValueError, match="disk"):
            bergman_kernel(1.0, 0.0)


class TestKernelCoefficients:
    def test_center_is_first_basis_vector(self):
        coeffs = kernel_coefficients(0.0, 5)
        np.testing.assert_allclose(coeffs, [1.0, 0.0, 0.0, 0.0, 0.0])
        assert np.linalg.norm(coeffs) == pytest.approx(1.0)

    def test_truncation_defect_small_at_half(self):
        w = 0.5
        assert kernel_truncation_defect(w, 40) < 1e-9
        # defect is exactly the missing coefficient mass
        coeffs = kernel_coefficients(w, 40)
        assert 1.0 - np.linalg.norm(coeffs) ** 2 == pytest.approx(
            kernel_truncation_defect(w, 40), rel=1e-6
        )

    def test_norm_approaches_one(self):
        norms = [np.linalg.norm(kernel_coefficients(0.5, d)) for d in (5, 10, 40)]
        assert norms[0] < norms[1] < norms[2] <= 1.0 + 1e-12

    def test_reproducing_property(self):
        # <f, K_w> = f(w) for f in the truncated space
        d = 12
        space = TruncatedBergman(d)
        w = 0.4 - 0.3j
        big = kernel_coefficients(w, d, normalized=False)
        f = np.zeros(d, dtype=complex)
        f[2] = 1.0  # the monomial ONB element of degree 2
        pairing = np.vdot(big, f)  # <f, K_w>
        assert pairing == pytest.approx(space.evaluate(f, w), rel=1e-12)

    def test_rejects_outside_disk(self):
        with pytest.raises(ValueError, match="disk"):
            kernel_coefficients(1.2, 3)

    @pytest.mark.parametrize("d", [0, -1, 2.5, True])
    @pytest.mark.parametrize("w", [0.0, 1e-9, 0.5])
    def test_rejects_degree_below_one_or_not_integer(self, w, d):
        # d = 0 at w = 0 would give defect 0, although the whole mass 1 is in the tail
        for call in (kernel_truncation_defect, kernel_coefficients):
            with pytest.raises(ValueError, match="d must be an integer >= 1"):
                call(w, d)

    def test_defect_accepts_numpy_integer_degree(self):
        assert kernel_truncation_defect(0.5, np.int64(40)) == kernel_truncation_defect(0.5, 40)


class TestBergmanMetric:
    def test_zero_at_coincidence(self):
        assert bergman_metric(0.3 + 0.1j, 0.3 + 0.1j) == 0.0

    def test_center_to_half(self):
        assert bergman_metric(0.0, 0.5) == pytest.approx(0.5 * np.log(3.0))

    def test_symmetry(self, rng):
        z, w = 0.2 + 0.3j, -0.5 + 0.1j
        assert bergman_metric(z, w) == pytest.approx(bergman_metric(w, z))

    def test_mobius_invariance(self, rng):
        for _ in range(20):
            z, w, a = (rng.uniform(-0.55, 0.55, 3) + 1j * rng.uniform(-0.55, 0.55, 3))

            def mobius(x):
                return (x - a) / (1.0 - np.conj(a) * x)

            assert bergman_metric(mobius(z), mobius(w)) == pytest.approx(
                bergman_metric(z, w), abs=1e-10
            )

    def test_rejects_boundary(self):
        with pytest.raises(ValueError, match="disk"):
            bergman_metric(0.0, 1.0)


class TestRLattice:
    def test_origin_only_when_separation_large(self):
        lattice = r_lattice(5.0, 0.9)
        np.testing.assert_array_equal(lattice.points, [0.0 + 0.0j])

    def test_pairwise_separation_brute_force(self):
        lattice = r_lattice(0.5, 0.9)
        assert lattice.points.size > 1
        assert min_pairwise_separation(lattice.points) >= 0.5

    def test_point_count_grows_with_rmax(self):
        counts = [r_lattice(0.4, rmax).points.size for rmax in (0.6, 0.8, 0.95)]
        assert counts[0] <= counts[1] <= counts[2]
        assert counts[2] > counts[0]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            r_lattice(0.0, 0.9)
        with pytest.raises(ValueError):
            r_lattice(0.5, 1.0)

    @pytest.mark.parametrize("separation", [np.nan, np.inf])
    def test_rejects_nonfinite_separation(self, separation):
        with pytest.raises(ValueError, match="separation"):
            r_lattice(separation, 0.5)

    @pytest.mark.parametrize("separation", [0.1, 0.2, 0.3, 0.5, 0.8, 1.5, 5.0])
    @pytest.mark.parametrize("rmax", [0.3, 0.6, 0.8, 0.9])
    def test_ring_check_equals_brute_force(self, monkeypatch, separation, rmax):
        checked = []
        ring_separation = bergman._ring_separation

        def recorded(rings, offsets):
            checked.append(ring_separation(rings, offsets))
            return checked[-1]

        monkeypatch.setattr(bergman, "_ring_separation", recorded)
        lattice = r_lattice(separation, rmax)
        assert checked == [min_pairwise_separation(lattice.points)]
        assert lattice.measured_separation == checked[0]

    @staticmethod
    def rings(radii, counts):
        """The origin, then counts[k] evenly spaced points on radius radii[k],
        turned by half a step on odd rings, as r_lattice places them."""
        offsets = [np.zeros(1)] + [
            2.0 * np.pi * np.arange(m) / m + (np.pi / m) * (k % 2)
            for k, m in enumerate(counts, start=1)
        ]
        rings = [r * np.exp(1j * a) for r, a in zip([0.0, *radii], offsets)]
        return rings, offsets

    @pytest.mark.parametrize("seed", range(20))
    def test_ring_check_finds_crowded_rings(self, seed):
        # too many points on some rings: the minimum is a same-ring pair
        rng = np.random.default_rng(seed)
        step = rng.uniform(0.1, 0.6)
        levels = int(np.arctanh(0.9) / step)
        counts = rng.integers(1, 40, size=levels)
        rings, offsets = self.rings(np.tanh(step * np.arange(1, levels + 1)), counts)
        expected = min_pairwise_separation(np.concatenate(rings))
        assert bergman._ring_separation(rings, offsets) == expected

    @pytest.mark.parametrize("seed", range(20))
    def test_ring_check_pairs_adjacent_rings_by_angle(self, seed):
        # two close rings far from the origin: the minimum is an inter-ring pair
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 60, size=2)
        rings, offsets = self.rings([0.9, rng.uniform(0.91, 0.95)], counts)
        expected = min_pairwise_separation(np.concatenate(rings))
        assert bergman._ring_separation(rings, offsets) == expected
        assert expected < min(min_pairwise_separation(r) for r in rings[1:])

    def test_fine_lattice_near_boundary_fits_in_memory(self):
        # 47,239 points: the all-pairs distance matrix alone would take 33 GiB;
        # the child process is capped at 2 GiB of address space
        script = (
            "import resource; cap = 2 << 30; "
            "resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); "
            "from schattenframes.bergman import r_lattice; "
            "print(r_lattice(0.2, 0.999).points.size)"
        )
        src = str(Path(bergman.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) == 47239


class TestSamplingFrame:
    def test_single_point_degree_one(self):
        lattice = r_lattice(5.0, 0.9)
        frame, report = sampling_frame(lattice, 1)
        assert frame.bounds == pytest.approx((1.0, 1.0))
        assert report.count == 1

    def test_dense_lattice_spans(self):
        lattice = r_lattice(0.3, 0.95)
        frame, report = sampling_frame(lattice, 8)
        assert report.lower_bound > 0
        assert report.condition >= 1.0

    def test_condition_degrades_with_sparsity(self):
        conditions = []
        for sep in (0.3, 0.5, 0.7):
            _, report = sampling_frame(r_lattice(sep, 0.95), 6)
            conditions.append(report.condition)
        assert conditions[0] <= conditions[1] <= conditions[2]

    def test_too_sparse_rejected_with_diagnostics(self):
        lattice = r_lattice(5.0, 0.9)  # single point cannot span degree 3
        with pytest.raises(ValueError, match="sparse"):
            sampling_frame(lattice, 3)


class TestDiskQuadrature:
    def test_mass(self):
        quad = disk_quadrature(32, 16, 0.9)
        assert np.sum(quad.weights_da) == pytest.approx(0.81, abs=1e-12)
        assert np.all(np.abs(quad.nodes) <= 0.9)

    @pytest.mark.parametrize("n", [0, 1, 4, 10])
    def test_radial_moments_closed_form(self, n):
        quad = disk_quadrature(64, 8, 0.999)
        value = np.sum(quad.weights_da * np.abs(quad.nodes) ** (2 * n))
        assert value == pytest.approx(0.999 ** (2 * n + 2) / (n + 1), rel=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_full_disk_deviation_truncation_dominated(self, n):
        # mass deficit vs the full-disk moment 1/(n+1) is 1 - rmax^(2n+2)
        quad = disk_quadrature(64, 8, 0.999)
        value = np.sum(quad.weights_da * np.abs(quad.nodes) ** (2 * n))
        deviation = abs(value - 1.0 / (n + 1)) * (n + 1)
        assert deviation == pytest.approx(1.0 - 0.999 ** (2 * n + 2), rel=1e-9)
        assert deviation < 1e-2

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_angular_exactness(self, n):
        quad = disk_quadrature(16, 16, 0.8)
        integral = np.sum(quad.weights_da * quad.nodes**n)
        assert abs(integral) < 1e-15

    def test_monomial_orthonormality(self):
        quad = disk_quadrature(16, 24, 1.0 - 1e-9)
        gram = monomial_gram(quad, 8)
        assert np.max(np.abs(gram - np.eye(8))) < 1e-6

    def test_rejects_bad_rmax(self):
        with pytest.raises(ValueError):
            disk_quadrature(4, 4, 1.0)

    @pytest.mark.parametrize(
        "counts,named",
        [
            ((2.5, 8), "n_radial"),
            ((8, 2.5), "n_angular"),
            ((True, 8), "n_radial"),
            ((8, np.float64(4.0)), "n_angular"),
            ((0, 8), "n_radial"),
        ],
        ids=["float-radial", "float-angular", "bool-radial", "numpy-float-angular", "zero-radial"],
    )
    def test_rejects_non_integer_counts(self, counts, named):
        with pytest.raises(ValueError, match=named):
            disk_quadrature(*counts, 0.9)

    def test_accepts_numpy_integer_counts(self):
        quad = disk_quadrature(np.int64(4), np.int32(3), 0.9)
        assert quad.nodes.size == 12


class TestIntegralCriterion:
    def test_zero_operator(self):
        quad = disk_quadrature(16, 16, 0.9)
        assert integral_criterion(np.zeros((3, 3)), 1.0, quad) == 0.0

    def test_diagonal_hs_closed_form(self):
        quad = disk_quadrature(64, 32, 0.995)
        t = np.diag([1.0, 0.5, 0.25, 0.125]).astype(complex)
        value = integral_criterion(t, 2.0, quad)
        expected = sum(
            t[n, n].real ** 2 * 0.995 ** (2 * n + 2) for n in range(4)
        )
        assert value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
    def test_scaling_homogeneity(self, p):
        quad = disk_quadrature(24, 16, 0.9)
        t = seeded_operators(4, 1, 40)[0]
        assert integral_criterion(2.0 * t, p, quad) == pytest.approx(
            2.0**p * integral_criterion(t, p, quad), rel=1e-12
        )

    def test_rejects_rectangular(self):
        quad = disk_quadrature(8, 8, 0.9)
        with pytest.raises(ValueError, match="square"):
            integral_criterion(np.ones((2, 3)), 1.0, quad)

    @pytest.mark.parametrize("p", [0.0, np.nan, np.inf])
    def test_rejects_p_outside_open_half_line(self, p):
        with pytest.raises(ValueError, match="p must be"):
            integral_criterion(np.eye(2), p, disk_quadrature(8, 8, 0.9))


class TestHSIdentity:
    def test_pointwise_integrand_agreement(self):
        quad = disk_quadrature(32, 32, 0.99)
        t = seeded_operators(5, 1, 50)[0]
        report = hs_identity_check(t, quad)
        assert report.pointwise_dev < 1e-12

    def test_scalar_case(self):
        quad = disk_quadrature(16, 8, 0.9)
        report = hs_identity_check(np.array([[2.0]]), quad)
        assert report.integral_da == pytest.approx(4.0 * 0.81, rel=1e-12)
        assert report.passed

    def test_diagonal_closed_form(self):
        quad = disk_quadrature(64, 32, 0.995)
        t = np.diag([1.0, 0.5, 0.25, 0.125]).astype(complex)
        report = hs_identity_check(t, quad)
        assert report.integral_dlambda == pytest.approx(report.mode_closed_form, rel=1e-12)
        assert report.integral_da == pytest.approx(report.mode_closed_form, rel=1e-12)
        assert report.passed

    def test_identity_operator_captured_mass(self):
        d = 4
        quad = disk_quadrature(64, 16, 0.99)
        report = hs_identity_check(np.eye(d), quad)
        expected = sum(0.99 ** (2 * n + 2) for n in range(d))
        assert report.integral_da == pytest.approx(expected, rel=1e-12)
        assert report.hs_norm_sq == pytest.approx(d)

    def test_truncation_budget_absorbs_cutoff(self):
        quad = disk_quadrature(48, 32, 0.97)
        for t in seeded_operators(6, 5, 60):
            report = hs_identity_check(t, quad)
            assert report.passed
            assert abs(report.integral_da - report.hs_norm_sq) <= report.truncation_bound * (
                1 + 1e-9
            )


class TestSamplingComparison:
    def test_constant_finite_and_stable(self):
        lattice = r_lattice(0.4, 0.9)
        t = seeded_operators(4, 1, 70)[0]
        coarse = disk_quadrature(32, 32, 0.95)
        fine = disk_quadrature(64, 64, 0.95)
        rep_c = sampling_comparison(t, 2.0, coarse, lattice)
        rep_f = sampling_comparison(t, 2.0, fine, lattice)
        assert np.isfinite(rep_f.constant)
        assert rep_c.constant == pytest.approx(rep_f.constant, rel=1e-6)
        assert rep_f.points_used == lattice.points.size

    def test_sum_grows_with_more_points(self):
        t = np.eye(3, dtype=complex)
        quad = disk_quadrature(32, 16, 0.95)
        sparse = sampling_comparison(t, 1.0, quad, r_lattice(0.8, 0.9))
        dense = sampling_comparison(t, 1.0, quad, r_lattice(0.4, 0.9))
        assert dense.lattice_sum > sparse.lattice_sum

    def test_lattice_sequence_matches_one_lattice_calls(self, monkeypatch):
        t = seeded_operators(4, 1, 71)[0]
        quad = disk_quadrature(32, 32, 0.95)
        lattices = [r_lattice(0.3, 0.95), r_lattice(0.5, 0.95)]
        singles = [sampling_comparison(t, 2.0, quad, lattice) for lattice in lattices]
        integrals = []
        criterion = bergman.integral_criterion

        def counted(*args):
            integrals.append(args)
            return criterion(*args)

        monkeypatch.setattr(bergman, "integral_criterion", counted)
        assert sampling_comparison(t, 2.0, quad, lattices) == singles
        assert sampling_comparison(t, 2.0, quad, lattices[:1]) == singles[:1]
        assert len(integrals) == 2  # one integral per call

    @pytest.mark.parametrize("p", [0.0, np.nan, np.inf])
    def test_rejects_p_outside_open_half_line(self, p):
        quad = disk_quadrature(8, 8, 0.9)
        with pytest.raises(ValueError, match="p must be"):
            sampling_comparison(np.eye(2), p, quad, r_lattice(0.5, 0.9))


class TestSubharmonicity:
    def test_identity_hs_power(self):
        report = subharmonicity_check(np.eye(4), 2.0, grid_step=0.02, rmax=0.85)
        assert report.passed
        assert report.min_laplacian >= 0.0

    def test_zero_operator(self):
        report = subharmonicity_check(np.zeros((3, 3)), 1.0, grid_step=0.05, rmax=0.8)
        assert report.min_laplacian == pytest.approx(0.0, abs=1e-12)
        assert report.passed

    def test_rank_one_projection_constant(self):
        # projection onto the constant mode: ||T K_w|| = 1 everywhere
        t = np.zeros((4, 4), dtype=complex)
        t[0, 0] = 1.0
        report = subharmonicity_check(t, 1.0, grid_step=0.05, rmax=0.8)
        assert report.max_value == pytest.approx(1.0, rel=1e-12)
        assert abs(report.min_laplacian) < 1e-9

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
    def test_seeded_ensemble(self, p):
        for t in seeded_operators(5, 4, 80):
            report = subharmonicity_check(t, p, grid_step=0.02, rmax=0.85)
            assert report.passed

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError, match="grid_step"):
            subharmonicity_check(np.eye(2), 1.0, grid_step=0.95, rmax=0.9)

    @pytest.mark.parametrize("p", [261.0, 300.0, 400.0, [2.0, 300.0]])
    def test_rejects_p_at_which_the_values_overflow(self, p):
        # ||10 K_w||^p or its stencil exceeds the float range on the grid: p = 261 used to
        # drop the overflowing stencils, p = 300 to pass with an infinite tolerance and
        # p = 400 to fail for want of a full stencil
        with pytest.raises(ValueError, match=r"overflows on the grid at p = (261|300|400)"):
            subharmonicity_check(10.0 * np.eye(2), p, grid_step=0.1, rmax=0.8)

    @pytest.mark.parametrize("p", [0.0, np.nan, np.inf, [1.0, np.nan]])
    def test_rejects_p_outside_open_half_line(self, p):
        with pytest.raises(ValueError, match="p must be"):
            subharmonicity_check(np.eye(2), p, grid_step=0.1, rmax=0.8)

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(
        dim=st.integers(1, 8),
        count=st.integers(1, 5),
        seed=st.integers(0, 10_000),
        ps=st.lists(st.floats(0.25, 8.0), min_size=1, max_size=4),
        grid_step=st.sampled_from([0.1, 0.15, 0.2]),
        rmax=st.sampled_from([0.6, 0.9]),
    )
    def test_stack_member_equals_single_call(self, dim, count, seed, ps, grid_step, rmax):
        ts = np.stack(seeded_operators(dim, count, seed))
        stacked = subharmonicity_check(ts, ps, grid_step=grid_step, rmax=rmax)
        assert len(stacked) == count and all(len(row) == len(ps) for row in stacked)
        for k, t in enumerate(ts):
            for j, p in enumerate(ps):
                single = subharmonicity_check(t, p, grid_step=grid_step, rmax=rmax)
                assert repr(stacked[k][j]) == repr(single)  # every field, bit for bit

    def test_single_operator_or_p_drops_its_level(self):
        ts = np.stack(seeded_operators(3, 2, 90))
        kwargs = {"grid_step": 0.1, "rmax": 0.8}
        full = subharmonicity_check(ts, [1.0, 2.0], **kwargs)
        by_p = subharmonicity_check(ts[1], [1.0, 2.0], **kwargs)
        by_operator = subharmonicity_check(ts, 2.0, **kwargs)
        assert repr(by_p) == repr(full[1])
        assert repr(by_operator) == repr([row[1] for row in full])


class TestTruncatedBergman:
    def test_scaling_vector(self):
        space = TruncatedBergman(3)
        np.testing.assert_allclose(space.onb_scaling, [1.0, np.sqrt(2.0), np.sqrt(3.0)])

    def test_evaluate_monomial(self):
        space = TruncatedBergman(4)
        coeffs = np.zeros(4)
        coeffs[3] = 1.0
        z = 0.3 + 0.2j
        assert space.evaluate(coeffs, z) == pytest.approx(2.0 * z**3)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="coefficients"):
            TruncatedBergman(3).evaluate(np.ones(2), 0.1)
