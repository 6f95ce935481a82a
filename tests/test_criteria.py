"""Frame-sum functionals and norm certificates."""

import collections
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seeded_hermitians, seeded_operators, seeded_psds
from schattenframes import criteria
from schattenframes.constructions import truncated_shift
from schattenframes.criteria import (
    _witness_budget,
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
from schattenframes.frames import (
    FrameEnsemble,
    canonical_parseval,
    make_frame,
    random_frame,
    random_onb,
    rescale_lower_bound_one,
    rescale_upper_bound_one,
    union_frame,
)
from schattenframes.linalg import schatten_norm, self_adjoint_parts, svd

E1E1E2 = make_frame([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def parseval_mercedes():
    angles = np.array([0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])
    return canonical_parseval(make_frame(np.vstack([np.cos(angles), np.sin(angles)])))


class TestSumNorms:
    def test_singular_basis_attains_norm(self):
        t = np.diag([3.0, 1.0, 0.5])
        basis = make_frame(np.eye(3))
        for p in (0.5, 1.0, 2.0, 4.0):
            assert sum_norms(t, basis, p).value == pytest.approx(schatten_norm(t, p) ** p)

    def test_identity_parseval_trace(self):
        frame = parseval_mercedes()
        assert sum_norms(np.eye(2), frame, 2.0).value == pytest.approx(2.0)

    def test_identity_mercedes_p1(self):
        # three vectors of norm sqrt(2/3)
        assert sum_norms(np.eye(2), parseval_mercedes(), 1.0).value == pytest.approx(np.sqrt(6.0))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError, match="frame"):
            sum_norms(np.eye(3), E1E1E2, 1.0)

    @pytest.mark.parametrize("p", [0.0, np.nan, np.inf])
    def test_rejects_p_outside_open_half_line(self, p):
        with pytest.raises(ValueError, match="p must be"):
            sum_norms(np.eye(2), make_frame(np.eye(2)), p)


class TestSumDiag:
    def test_diagonal_psd(self):
        t = np.diag([4.0, 1.0, 0.25])
        basis = make_frame(np.eye(3))
        for p in (0.5, 1.0, 3.0):
            assert sum_diag(t, basis, p).value == pytest.approx(np.sum(np.diag(t) ** p))

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 4.0])
    def test_shift_vanishes(self, p):
        shift = truncated_shift(5)
        assert sum_diag(shift, make_frame(np.eye(5)), p).value == 0.0

    def test_repeated_vector(self):
        assert sum_diag(np.eye(2), E1E1E2, 1.0).value == pytest.approx(3.0)


class TestSumDouble:
    def test_diagonal_offdiag_vanish(self):
        t = np.diag([2.0, -1.0])
        assert sum_double(t, make_frame(np.eye(2)), 1.5).value == pytest.approx(
            2.0**1.5 + 1.0
        )

    def test_identity_onb_hs(self):
        frame = random_onb(4, 3)
        assert sum_double(np.eye(4), frame, 2.0).value == pytest.approx(4.0)

    def test_hermitian_eigenbasis(self):
        for t in seeded_hermitians(3, 5):
            vecs = svd(t).right_vectors
            eig_frame = make_frame(vecs)
            for p in (1.0, 2.0, 3.0):
                expected = np.sum(svd(t).singular_values ** p)
                assert sum_double(t, eig_frame, p).value == pytest.approx(
                    expected, abs=1e-6, rel=1e-6
                )


class TestWeightedSum:
    def test_weighted_norms_reduces_on_onb(self):
        t = np.diag([2.0, 1.0]).astype(complex)
        onb = random_onb(2, 0)
        for p in (0.5, 1.0, 2.0):
            assert weighted_sum("weighted_norms", t, onb, p).value == pytest.approx(
                sum_norms(t, onb, p).value
            )

    def test_weighted_diag_arithmetic(self):
        # frame {sqrt(2) e_n}: weights sqrt(2), pairings 2 t_n -> 2 sum sqrt(t_n)
        t = np.diag([4.0, 9.0])
        frame = make_frame(np.sqrt(2.0) * np.eye(2))
        value = weighted_sum("weighted_diag", t, frame, 0.5).value
        assert value == pytest.approx(2.0 * (2.0 + 3.0))

    def test_weighted_double_parseval_weights(self):
        frame = parseval_mercedes()
        lengths = np.linalg.norm(frame.vectors, axis=0)
        assert np.all(lengths <= 1.0 + 1e-12)
        value = weighted_sum("weighted_double", np.eye(2), frame, 1.0).value
        plain = sum_double(np.eye(2), frame, 1.0).value
        assert value <= plain + 1e-12

    def test_zero_vector_contributes_nothing(self):
        frame = union_frame(make_frame(np.eye(2)), np.zeros((2, 1)))
        t = np.diag([1.0, 2.0])
        assert weighted_sum("weighted_norms", t, frame, 2.0).value == pytest.approx(
            weighted_sum("weighted_norms", t, make_frame(np.eye(2)), 2.0).value
        )

    def test_range_rejections(self):
        t = np.eye(2)
        with pytest.raises(ValueError, match="0.0 < p <= 1.0"):
            weighted_sum("weighted_diag", t, E1E1E2, 1.5)
        with pytest.raises(ValueError, match="0.0 < p <= 2.0"):
            weighted_sum("weighted_norms", t, E1E1E2, 3.0)
        with pytest.raises(ValueError, match="0.0 < p <= 2.0"):
            weighted_sum("weighted_double", t, E1E1E2, 2.5)

    def test_rejects_non_psd_for_weighted_diag(self):
        with pytest.raises(ValueError, match="PSD"):
            weighted_sum("weighted_diag", np.diag([1.0, -1.0]), E1E1E2, 0.5)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            weighted_sum("bogus", np.eye(2), E1E1E2, 1.0)


class TestDoubleSumComparison:
    def test_onb_constants_one_and_hs_equality(self):
        onb = random_onb(3, 1)
        t = seeded_operators(3, 1, 17)[0]
        comp = double_sum_comparison(t, onb, 2.0)
        assert comp.upper_constant == pytest.approx(1.0, abs=1e-10)
        assert comp.lower_constant == pytest.approx(1.0, abs=1e-10)
        assert comp.double_sum == pytest.approx(comp.norm_sum, rel=1e-10)
        assert comp.passed

    def test_repeated_vector_enumeration(self):
        # pairings matrix [[1,1,0],[1,1,0],[0,0,1]]: squares sum to 5
        comp2 = double_sum_comparison(np.eye(2), E1E1E2, 2.0)
        assert comp2.double_sum == pytest.approx(5.0)
        assert comp2.norm_sum == pytest.approx(3.0)
        assert comp2.lower_constant == pytest.approx(1.0)
        assert comp2.passed  # 5 >= 1 * 3
        comp4 = double_sum_comparison(np.eye(2), E1E1E2, 4.0)
        assert comp4.double_sum == pytest.approx(5.0)
        assert comp4.upper_constant == pytest.approx(4.0)
        assert comp4.passed  # 5 <= 4 * 3

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0, 4.0])
    def test_seeded_ensemble(self, p):
        for i, t in enumerate(seeded_operators(5, 20, 300)):
            frame = random_frame(5, 5 + i % 5 + 1, 100.0, 400 + i)
            assert double_sum_comparison(t, frame, p).passed

    @pytest.mark.parametrize("p", [0.5, 2.0, 3.0])
    def test_frame_stack_matches_single_frames(self, p):
        group = FrameEnsemble(4, 10, 40).groups[1]
        ops = np.stack(seeded_operators(4, len(group.indices), 700))
        batch = double_sum_comparison(ops, group.raw, p)
        for k in range(len(group.indices)):
            frame = group.raw[k]
            single = double_sum_comparison(ops[k], frame, p)
            assert batch.double_sum[k] == pytest.approx(single.double_sum, rel=1e-12)
            assert batch.norm_sum[k] == pytest.approx(single.norm_sum, rel=1e-12)
            assert bool(batch.passed[k]) == single.passed
            for name in ("upper_constant", "lower_constant"):
                constant = getattr(single, name)
                if constant is None:
                    assert getattr(batch, name) is None
                else:
                    assert getattr(batch, name)[k] == pytest.approx(constant, rel=1e-12)

    @pytest.mark.parametrize(
        "member,shape",
        [(0, (3,)), (0, (4, 3)), (0, (3, 4)), (0, (3, 3, 3)),
         (None, (3,)), (None, (4, 3)), (None, (2, 3, 3)), (None, (1, 3, 3, 3))],
    )
    def test_rejects_operator_shapes(self, member, shape):
        # a stack of three frames in C^3, or its first member
        stack = FrameEnsemble(3, 9, 0).groups[0].raw
        frame = stack if member is None else stack[member]
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            double_sum_comparison(np.ones(shape), frame, 2.0)

    def test_frame_stack_rejects_non_finite_operators(self):
        group = FrameEnsemble(2, 2, 0).groups[0]
        ops = np.full((len(group.indices), 2, 2), np.nan)
        with pytest.raises(ValueError, match="finite"):
            double_sum_comparison(ops, group.raw, 2.0)

    def test_parseval_hs_equality(self):
        for i, t in enumerate(seeded_operators(4, 10, 500)):
            frame = canonical_parseval(random_frame(4, 6, 100.0, 600 + i))
            comp = double_sum_comparison(t, frame, 2.0)
            assert comp.double_sum == pytest.approx(comp.norm_sum, rel=1e-10)


class TestSharedEnsemble:
    """A campaign's shared ensemble and a stand-alone (trials, seed) call agree."""

    @pytest.mark.parametrize("dim,trials", [(1, 3), (3, 7)])
    def test_certificates_match_stand_alone(self, dim, trials):
        ensemble = FrameEnsemble(dim, trials, 9)
        general = seeded_operators(dim, 1, 31)[0]
        hermitian = seeded_hermitians(dim, 1, 32)[0]
        psd = seeded_psds(dim, 1, 33)[0]
        calls = [
            (certify_norm_formula, general, 0.5, {}),
            (certify_norm_formula, general, 3.0, {}),
            (certify_diag_formula, hermitian, 1.5, {"direction": "sup_below"}),
            (certify_diag_formula, psd, 0.5, {"direction": "inf_above"}),
            (certify_double_formula, general, 4.0, {}),
            (certify_double_formula, hermitian, 1.0, {}),
        ]
        for certify, t, p, extra in calls:
            shared = certify(t, p, ensemble=ensemble, **extra)
            assert shared == certify(t, p, trials, 9, **extra)
            assert shared.trials == trials
            assert shared.passed
        assert endpoint_suites(psd, ensemble=ensemble) == endpoint_suites(psd, trials, 9)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="ensemble"):
            certify_norm_formula(np.eye(3), 2.0, ensemble=FrameEnsemble(2, 4, 0))

    def test_rejects_no_trials(self):
        with pytest.raises(ValueError, match="trials"):
            certify_norm_formula(np.eye(2), 2.0, trials=0)


P_GRID = st.lists(st.floats(0.0, 8.0, exclude_min=True), min_size=1, max_size=5)


class TestCertificateGrid:
    """A certificate over a p-grid: report j is the one-p call at p[j]."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(
        dim=st.integers(1, 6),
        trials=st.integers(1, 12),
        grid=P_GRID,
        seed=st.integers(0, 2**16),
    )
    def test_grid_reports_equal_one_p_calls(self, dim, trials, grid, seed):
        ensemble = FrameEnsemble(dim, trials, seed)
        general = seeded_operators(dim, 1, seed + 1)[0]
        hermitian = seeded_hermitians(dim, 1, seed + 2)[0]
        psd = seeded_psds(dim, 1, seed + 3)[0]
        s1 = {id(t): np.linalg.svd(t, compute_uv=False)[0] for t in (general, hermitian, psd)}
        eig = {id(t): np.max(np.abs(np.linalg.eigvalsh(t))) for t in (hermitian, psd)}
        calls = [  # certificate, operator, sub-grid, extra arguments, witness term count and scale
            (certify_norm_formula, general, grid, {}, dim, s1),
            (certify_diag_formula, hermitian, [p for p in grid if p >= 1],
             {"direction": "sup_below"}, dim, eig),
            (certify_diag_formula, psd, [p for p in grid if p <= 1],
             {"direction": "inf_above"}, dim, eig),
            (certify_diag_formula, psd, grid, {}, dim, eig),  # each p its own regime
            (certify_double_formula, general, [p for p in grid if p >= 2], {}, dim**2, s1),
            (certify_double_formula, hermitian, grid, {}, dim**2, s1),
        ]
        for certify, t, ps, extra, n_terms, scale in calls:
            reports = certify(t, ps, ensemble=ensemble, **extra)
            assert len(reports) == len(ps)
            for p, rep in zip(ps, reports):
                assert repr(rep) == repr(certify(t, p, ensemble=ensemble, **extra))
                assert rep.p == p and rep.passed
                slack = rep.tolerance * max(1.0, rep.norm_value)
                if rep.direction == "sup_below":
                    assert rep.extremal_value <= rep.norm_value + slack
                else:
                    assert rep.extremal_value >= rep.norm_value - slack
                if rep.witness_value is not None:
                    budget = _witness_budget(p, n_terms, float(scale[id(t)]))
                    assert abs(rep.witness_value - rep.norm_value) <= slack + budget
                    assert rep.equality_witness

    def test_decomposes_once_and_walks_each_regime_once(self, monkeypatch):
        calls = collections.Counter()
        for name in ("svd", "hermitian_eigen"):
            monkeypatch.setattr(criteria, name, counted(calls, name, getattr(criteria, name)))
        walk = FrameEnsemble.regime_stacks
        monkeypatch.setattr(FrameEnsemble, "regime_stacks", counted(calls, "walk", walk))
        ensemble = FrameEnsemble(3, 7, 0)
        hermitian = seeded_hermitians(3, 1, 40)[0]
        reports = certify_double_formula(hermitian, [0.5, 1.0, 2.0, 3.0, 1.5], ensemble=ensemble)
        directions = [rep.direction for rep in reports]
        # sup at p = 2 even for a Hermitian operator
        assert directions == ["inf_above", "inf_above", "sup_below", "sup_below", "inf_above"]
        assert calls == {"svd": 1, "hermitian_eigen": 1, "walk": 2}
        calls.clear()
        certify_norm_formula(hermitian, [3.0, 4.0, 5.0], ensemble=ensemble)
        assert calls == {"svd": 1, "walk": 1}

    def test_rejections_name_the_offending_p(self):
        shift = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="needs a Hermitian operator, got p = 1.5"):
            certify_double_formula(shift, [4.0, 1.5])
        with pytest.raises(ValueError, match="needs p >= 1, got p = 0.5"):
            certify_diag_formula(np.diag([1.0, -1.0]), [2.0, 0.5], direction="sup_below")
        with pytest.raises(ValueError, match="needs 0 < p <= 1, got p = 2.0"):
            certify_diag_formula(np.diag([1.0, 2.0]), [0.5, 2.0], direction="inf_above")
        with pytest.raises(ValueError, match="got nan"):
            certify_norm_formula(np.eye(2), [1.0, float("nan")], trials=2)


def counted(calls, name, fn):
    """`fn`, counting its calls in calls[name]."""

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


class TestCertifyNormFormula:
    def test_hs_case(self):
        cert = certify_norm_formula(np.diag([2.0, 1.0]), 2.0, trials=30, seed=0)
        assert cert.passed
        assert cert.witness_value == pytest.approx(5.0)

    def test_sup_case(self):
        cert = certify_norm_formula(np.diag([2.0, 1.0]), 4.0, trials=30, seed=0)
        assert cert.passed
        assert cert.direction == "sup_below"
        assert cert.witness_value == pytest.approx(17.0)
        assert cert.extremal_value <= 17.0 + 1e-9

    def test_inf_case(self):
        cert = certify_norm_formula(np.diag([2.0, 1.0]), 1.0, trials=30, seed=0)
        assert cert.passed
        assert cert.direction == "inf_above"
        assert cert.witness_value == pytest.approx(3.0)
        assert cert.extremal_value >= 3.0 - 1e-9

    def test_random_operators_all_p(self):
        for t in seeded_operators(4, 3, 700):
            for p in (0.5, 1.5, 2.0, 3.0):
                assert certify_norm_formula(t, p, trials=15, seed=1).passed


class TestCertifyDiagFormula:
    def test_psd_trace_inf(self):
        cert = certify_diag_formula(np.diag([4.0, 1.0]), 1.0, trials=30, seed=0,
                                    direction="inf_above")
        assert cert.passed
        assert cert.witness_value == pytest.approx(5.0)
        assert cert.extremal_value >= 5.0 - 1e-9

    def test_indefinite_sup(self):
        cert = certify_diag_formula(np.diag([1.0, -1.0]), 3.0, trials=30, seed=0)
        assert cert.passed
        assert cert.direction == "sup_below"
        assert cert.witness_value == pytest.approx(2.0)

    def test_identity_sum_is_dim(self):
        for seed in range(3):
            onb = random_onb(4, seed)
            assert sum_diag(np.eye(4), onb, 1.5).value == pytest.approx(4.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            certify_diag_formula(np.array([[0.0, 1.0], [0.0, 0.0]]), 2.0)

    def test_rejects_inf_regime_without_psd(self):
        with pytest.raises(ValueError, match="PSD"):
            certify_diag_formula(np.diag([1.0, -1.0]), 0.5, direction="inf_above")

    def test_rejects_sup_regime_small_p(self):
        with pytest.raises(ValueError, match="p >= 1"):
            certify_diag_formula(np.diag([1.0, -1.0]), 0.5, direction="sup_below")

    @pytest.mark.parametrize("direction", ["bogus", "sup", ""])
    def test_rejects_unknown_direction(self, direction):
        # an unknown name would otherwise run the sup regime at p < 1, unchecked
        with pytest.raises(ValueError, match=f"direction must be .* got '{direction}'"):
            certify_diag_formula(np.diag([2.0, 1.0]), 0.5, trials=5, direction=direction)


class TestCertifyDoubleFormula:
    def test_hermitian_hs(self):
        cert = certify_double_formula(np.diag([1.0, -2.0]), 2.0, trials=30, seed=0)
        assert cert.passed
        assert cert.witness_value == pytest.approx(5.0)

    def test_hermitian_inf(self):
        cert = certify_double_formula(np.diag([1.0, -2.0]), 1.0, trials=30, seed=0)
        assert cert.passed
        assert cert.direction == "inf_above"
        assert cert.witness_value == pytest.approx(3.0)
        assert cert.extremal_value >= 3.0 - 1e-9

    def test_non_hermitian_sup(self):
        cert = certify_double_formula(np.array([[0.0, 1.0], [0.0, 0.0]]), 4.0, trials=30, seed=0)
        assert cert.passed
        assert cert.witness_value is None
        assert cert.extremal_value <= 1.0 + 1e-9

    def test_rejects_non_hermitian_inf(self):
        with pytest.raises(ValueError, match="Hermitian"):
            certify_double_formula(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


class TestEndpointSuites:
    def test_parseval_hs_exact(self):
        for i, t in enumerate(seeded_operators(4, 5, 800)):
            frame = canonical_parseval(random_frame(4, 7, 100.0, 900 + i))
            total = sum_norms(t, frame, 2.0).value
            assert total == pytest.approx(schatten_norm(t, 2.0) ** 2, rel=1e-10)

    def test_repeated_vector_hs(self):
        assert sum_norms(np.eye(2), E1E1E2, 2.0).value == pytest.approx(3.0)

    def test_repeated_vector_trace_enclosure(self):
        t = np.diag([2.0, 0.0])
        total = sum_diag(t, E1E1E2, 1.0).value
        assert total == pytest.approx(4.0)
        assert 2.0 <= total <= 4.0  # [C1, C2] * trace

    def test_report_psd(self):
        rep = endpoint_suites(seeded_psds(4, 1, 12)[0], trials=30, seed=0)
        assert rep.passed
        assert rep.trace_checked
        assert rep.hs_identity_dev <= 1e-10

    def test_report_general(self):
        rep = endpoint_suites(seeded_operators(4, 1, 13)[0], trials=30, seed=0)
        assert rep.passed
        assert not rep.trace_checked


class TestInvariants:
    def test_singular_basis_exactness(self):
        for t in seeded_operators(6, 10, 1000):
            basis = make_frame(svd(t).right_vectors)
            for p in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0):
                expected = schatten_norm(t, p) ** p
                assert sum_norms(t, basis, p).value == pytest.approx(expected, rel=1e-9)

    def test_hs_sum_equals_weighted_trace(self):
        for i, t in enumerate(seeded_operators(5, 20, 1100)):
            frame = random_frame(5, 5 + i % 4 + 1, 100.0, 1200 + i)
            lhs = sum_norms(t, frame, 2.0).value
            rhs = float(np.real(np.trace(t.conj().T @ t @ frame.frame_operator)))
            assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_sup_direction(self, p):
        for i, t in enumerate(seeded_operators(5, 25, 1300)):
            frame = rescale_upper_bound_one(random_frame(5, 5 + i % 4 + 1, 100.0, 1400 + i))
            assert sum_norms(t, frame, p).value <= schatten_norm(t, p) ** p + 1e-9

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5])
    def test_inf_direction(self, p):
        for i, t in enumerate(seeded_operators(5, 25, 1500)):
            frame = canonical_parseval(random_frame(5, 5 + i % 4 + 1, 100.0, 1600 + i))
            assert sum_norms(t, frame, p).value >= schatten_norm(t, p) ** p - 1e-9

    @pytest.mark.parametrize("p", [0.5, 1.0])
    def test_weighted_inf_direction(self, p):
        for i, t in enumerate(seeded_psds(5, 20, 1700)):
            frame = rescale_lower_bound_one(random_frame(5, 5 + i % 4 + 1, 100.0, 1800 + i))
            value = weighted_sum("weighted_diag", t, frame, p).value
            assert value >= schatten_norm(t, p) ** p - 1e-9

    def test_split_comparability(self):
        for i, t in enumerate(seeded_operators(4, 10, 1900)):
            parts = self_adjoint_parts(t)
            frame = random_frame(4, 6, 100.0, 2000 + i)
            for p in (0.5, 1.0, 2.0, 3.0):
                full = sum_diag(t, frame, p).value
                split = sum_diag(parts.t1, frame, p).value + sum_diag(parts.t2, frame, p).value
                assert full <= 2.0**p * split + 1e-9
                assert sum_diag(parts.t1, frame, p).value <= full + 1e-9
                assert sum_diag(parts.t2, frame, p).value <= full + 1e-9

    def test_refinement_monotonicity(self, rng):
        t = seeded_operators(3, 1, 2100)[0]
        frame = make_frame(np.eye(3))
        extended = union_frame(frame, rng.standard_normal((3, 2)))
        for p in (0.5, 2.0, 4.0):
            assert sum_norms(t, extended, p).value >= sum_norms(t, frame, p).value - 1e-12
            assert sum_diag(t, extended, p).value >= sum_diag(t, frame, p).value - 1e-12
            assert sum_double(t, extended, p).value >= sum_double(t, frame, p).value - 1e-12
