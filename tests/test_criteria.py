"""Frame-sum functionals and norm certificates."""

import collections
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import frame_at, seeded_hermitians, seeded_operators, seeded_psds
from schattenframes import criteria, frames
from schattenframes.bergman import disk_quadrature, integral_criterion, r_lattice
from schattenframes.bergman import sampling_comparison
from schattenframes.constructions import truncated_shift
from schattenframes.criteria import (
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
from schattenframes.linalg import CERTIFICATE_TOL, _verdict, _witness_budget, psd_power
from schattenframes.linalg import schatten_norm, svd

E1E1E2 = make_frame([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def parseval_mercedes():
    angles = np.array([0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])
    return canonical_parseval(make_frame(np.vstack([np.cos(angles), np.sin(angles)])))


class TestSumNorms:
    def test_singular_basis_attains_norm(self):
        t = np.diag([3.0, 1.0, 0.5])
        basis = make_frame(np.eye(3))
        for p in (0.5, 1.0, 2.0, 4.0):
            assert sum_norms(t, basis, p) == pytest.approx(schatten_norm(t, p) ** p)

    def test_identity_parseval_trace(self):
        frame = parseval_mercedes()
        assert sum_norms(np.eye(2), frame, 2.0) == pytest.approx(2.0)

    def test_identity_mercedes_p1(self):
        # three vectors of norm sqrt(2/3)
        assert sum_norms(np.eye(2), parseval_mercedes(), 1.0) == pytest.approx(np.sqrt(6.0))

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
            assert sum_diag(t, basis, p) == pytest.approx(np.sum(np.diag(t) ** p))

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 4.0])
    def test_shift_vanishes(self, p):
        shift = truncated_shift(5)
        assert sum_diag(shift, make_frame(np.eye(5)), p) == 0.0

    def test_repeated_vector(self):
        assert sum_diag(np.eye(2), E1E1E2, 1.0) == pytest.approx(3.0)


class TestSumDouble:
    def test_diagonal_offdiag_vanish(self):
        t = np.diag([2.0, -1.0])
        assert sum_double(t, make_frame(np.eye(2)), 1.5) == pytest.approx(
            2.0**1.5 + 1.0
        )

    def test_identity_onb_hs(self):
        frame = random_onb(4, 3)
        assert sum_double(np.eye(4), frame, 2.0) == pytest.approx(4.0)

    def test_hermitian_eigenbasis(self):
        for t in seeded_hermitians(3, 5):
            vecs = svd(t).right_vectors
            eig_frame = make_frame(vecs)
            for p in (1.0, 2.0, 3.0):
                expected = np.sum(svd(t).singular_values ** p)
                assert sum_double(t, eig_frame, p) == pytest.approx(
                    expected, abs=1e-6, rel=1e-6
                )


class TestWeightedSum:
    def test_weighted_norms_reduces_on_onb(self):
        t = np.diag([2.0, 1.0]).astype(complex)
        onb = random_onb(2, 0)
        for p in (0.5, 1.0, 2.0):
            assert weighted_sum("weighted_norms", t, onb, p) == pytest.approx(
                sum_norms(t, onb, p)
            )

    def test_weighted_diag_arithmetic(self):
        # frame {sqrt(2) e_n}: weights sqrt(2), pairings 2 t_n -> 2 sum sqrt(t_n)
        t = np.diag([4.0, 9.0])
        frame = make_frame(np.sqrt(2.0) * np.eye(2))
        value = weighted_sum("weighted_diag", t, frame, 0.5)
        assert value == pytest.approx(2.0 * (2.0 + 3.0))

    def test_weighted_double_parseval_weights(self):
        frame = parseval_mercedes()
        lengths = np.linalg.norm(frame.vectors, axis=0)
        assert np.all(lengths <= 1.0 + 1e-12)
        value = weighted_sum("weighted_double", np.eye(2), frame, 1.0)
        plain = sum_double(np.eye(2), frame, 1.0)
        assert value <= plain + 1e-12

    def test_zero_vector_contributes_nothing(self):
        frame = union_frame(make_frame(np.eye(2)), np.zeros((2, 1)))
        t = np.diag([1.0, 2.0])
        assert weighted_sum("weighted_norms", t, frame, 2.0) == pytest.approx(
            weighted_sum("weighted_norms", t, make_frame(np.eye(2)), 2.0)
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
        group = list(FrameEnsemble(4, 10, 40))[1]
        ops = np.stack(seeded_operators(4, len(group.seeds), 700))
        [batch] = criteria._comparisons(ops, group.raw, [p])
        for k in range(len(group.seeds)):
            single = double_sum_comparison(ops[k], frame_at(group.raw, k), p)
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
        # the first of a stack's three frames in C^3, or each of them (None); as for
        # every operator, a 1-d array is read as a column
        stack = next(iter(FrameEnsemble(3, 9, 0))).raw
        named = shape + (1,) if len(shape) == 1 else shape
        for k in range(len(stack.vectors)) if member is None else [member]:
            with pytest.raises(ValueError, match=re.escape(f"got shape {named}")):
                double_sum_comparison(np.ones(shape), frame_at(stack, k), 2.0)

    def test_frame_stack_rejects_non_finite_operators(self):
        group = next(iter(FrameEnsemble(2, 2, 0)))
        for k in range(len(group.seeds)):
            with pytest.raises(ValueError, match="finite"):
                double_sum_comparison(np.full((2, 2), np.nan), frame_at(group.raw, k), 2.0)

    @pytest.mark.parametrize("p", [0.5, 2.0, 3.0])
    def test_margins_are_the_verdicts_of_each_side(self, p):
        """Each side's margin is `_verdict`'s margin of the double sum against that
        one bound, relative to max(1, double sum); a side that does not apply has none."""
        group = list(FrameEnsemble(4, 10, 40))[1]
        ops = np.stack(seeded_operators(4, len(group.seeds), 700))
        [comp] = criteria._comparisons(ops, group.raw, [p])
        ds, ns = comp.double_sum, comp.norm_sum
        assert np.all(comp.passed)
        if p >= 2:
            upper = _verdict(ds, -np.inf, comp.upper_constant * ns, CERTIFICATE_TOL, ds)[0]
            assert comp.upper_margin.tobytes() == upper.tobytes()
        else:
            assert comp.upper_margin is None
        if p <= 2:
            lower = _verdict(ds, comp.lower_constant * ns, np.inf, CERTIFICATE_TOL, ds)[0]
            assert comp.lower_margin.tobytes() == lower.tobytes()
        else:
            assert comp.lower_margin is None

    def test_parseval_hs_equality(self):
        for i, t in enumerate(seeded_operators(4, 10, 500)):
            frame = canonical_parseval(random_frame(4, 6, 100.0, 600 + i))
            comp = double_sum_comparison(t, frame, 2.0)
            assert comp.double_sum == pytest.approx(comp.norm_sum, rel=1e-10)


class TestSharedEnsemble:
    """The bodies a campaign runs on its shared ensemble and a stand-alone
    (trials, seed) call agree."""

    @pytest.mark.parametrize("dim,trials", [(1, 3), (3, 7)])
    def test_certificates_match_stand_alone(self, dim, trials):
        ensemble = FrameEnsemble(dim, trials, 9)
        general = seeded_operators(dim, 1, 31)[0]
        hermitian = seeded_hermitians(dim, 1, 32)[0]
        psd = seeded_psds(dim, 1, 33)[0]
        calls = [
            (certify_norm_formula, criteria._norm_job, general, 0.5, {}),
            (certify_norm_formula, criteria._norm_job, general, 3.0, {}),
            (certify_diag_formula, criteria._diag_job, hermitian, 1.5, {"direction": "sup_below"}),
            (certify_diag_formula, criteria._diag_job, psd, 0.5, {"direction": "inf_above"}),
            (certify_double_formula, criteria._double_job, general, 4.0, {}),
            (certify_double_formula, criteria._double_job, hermitian, 1.0, {}),
        ]
        for certify, job, t, p, extra in calls:
            [[shared]] = criteria._certify(ensemble, [job(t, [p], **extra)])
            assert shared == certify(t, p, trials, 9, **extra)
            assert shared.trials == trials
            assert shared.passed
        # the endpoint suites judged on the sums a walk's visit takes
        ops, sums = (psd, general), ([], [])

        def visit(group):
            for t, taken in zip(ops, sums):
                taken.append(criteria._endpoint_sums(t, group.raw))

        criteria._certify(ensemble, [criteria._norm_job(general, [0.5])], visit=visit)
        for t, taken in zip(ops, sums):
            walked = criteria._endpoint_report(t, taken, trials)
            assert repr(walked) == repr(endpoint_suites(t, trials, 9))  # repr: nan margins
            assert walked.passed and walked.trace_checked == (t is psd)

    def test_rejects_no_trials(self):
        with pytest.raises(ValueError, match="trials"):
            certify_norm_formula(np.eye(2), 2.0, trials=0)


P_GRID = st.lists(st.floats(0.0, 8.0, exclude_min=True), min_size=1, max_size=5)


class TestCertificateGrid:
    """A certificate job over a p-grid: report j is the one-p call at p[j]."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(
        dim=st.integers(1, 6),
        trials=st.integers(1, 12),
        grid=P_GRID,
        seed=st.integers(0, 2**16),
    )
    def test_grid_reports_equal_one_p_calls(self, dim, trials, grid, seed):
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
        job_of = {
            certify_norm_formula: criteria._norm_job,
            certify_diag_formula: criteria._diag_job,
            certify_double_formula: criteria._double_job,
        }
        for certify, t, ps, extra, n_terms, scale in calls:
            job = job_of[certify](t, ps, **extra)
            [reports] = criteria._certify(FrameEnsemble(dim, trials, seed), [job])
            assert len(reports) == len(ps)
            for p, rep in zip(ps, reports):
                assert repr(rep) == repr(certify(t, p, trials, seed, **extra))
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
        # the campaign's path: the jobs of every call sampled in one walk of the ensemble
        jobs = [job_of[certify](t, ps, **extra) for certify, t, ps, extra, *_ in calls]
        walked = criteria._certify(FrameEnsemble(dim, trials, seed), jobs)
        for (certify, t, ps, extra, *_), reports in zip(calls, walked):
            assert repr(reports) == repr([certify(t, p, trials, seed, **extra) for p in ps])

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(
        dim=st.integers(1, 5),
        trials=st.integers(1, 10),
        grid=P_GRID,
        seed=st.integers(0, 2**16),
    )
    def test_double_sum_comparison_grid_equals_one_p_calls(self, dim, trials, grid, seed):
        group = next(iter(FrameEnsemble(dim, trials, seed)))
        ops = np.stack(seeded_operators(dim, len(group.seeds), seed))
        comparisons = criteria._comparisons(ops, group.raw, grid)
        assert len(comparisons) == len(grid)
        for p, comparison in zip(grid, comparisons):
            for k in range(len(group.seeds)):  # member k at p, bit for bit
                expected = double_sum_comparison(ops[k], frame_at(group.raw, k), p)
                for field in dataclasses.fields(expected):
                    value, one_p = getattr(comparison, field.name), getattr(expected, field.name)
                    if field.name != "p" and value is not None:
                        value = value[k]
                    assert repr(np.asarray(value).tolist()) == repr(np.asarray(one_p).tolist())

    def test_decomposes_once_and_walks_each_regime_once(self, monkeypatch):
        calls = collections.Counter()
        for name in ("svd", "hermitian_eigen"):
            monkeypatch.setattr(criteria, name, counted(calls, name, getattr(criteria, name)))
        # one TrialGroup per group and walk; each derives a regime's stack once
        walked = []

        def recorded(*args):
            calls["group"] += 1
            walked.append(trial_group(*args))
            return walked[-1]

        trial_group = frames.TrialGroup
        monkeypatch.setattr(frames, "TrialGroup", recorded)
        parseval = counted(calls, "parseval", frames._parseval_vectors)
        monkeypatch.setattr(frames, "_parseval_vectors", parseval)
        # the walk measures the bounds of each group's raw stack alone, when it is drawn
        spanning = counted(calls, "spanning_bounds", frames._spanning_bounds)
        monkeypatch.setattr(frames, "_spanning_bounds", spanning)
        hermitian = seeded_hermitians(3, 1, 40)[0]
        job = criteria._double_job(hermitian, [0.5, 1.0, 2.0, 3.0, 1.5])
        [reports] = criteria._certify(FrameEnsemble(3, 7, 0), [job])
        directions = [rep.direction for rep in reports]
        # sup at p = 2 even for a Hermitian operator
        assert directions == ["inf_above", "inf_above", "sup_below", "sup_below", "inf_above"]
        groups = 3  # one per frame count, min(dim, trials)
        assert calls == {
            "svd": 1, "hermitian_eigen": 1, "group": groups, "parseval": groups,
            "spanning_bounds": groups,
        }
        for group in walked:
            assert_walked_vectors(group, {"onb", "parseval", "upper_one"})
        calls.clear()
        walked.clear()
        criteria._certify(FrameEnsemble(3, 7, 0), [criteria._norm_job(hermitian, [3.0, 4.0, 5.0])])
        assert calls == {"svd": 1, "group": groups, "spanning_bounds": groups}
        for group in walked:
            assert_walked_vectors(group, {"onb", "upper_one"})

    def test_rejections_name_the_offending_p(self):
        shift = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="needs a Hermitian operator, got p = 1.5"):
            criteria._double_job(shift, [4.0, 1.5])
        with pytest.raises(ValueError, match="needs p >= 1, got p = 0.5"):
            criteria._diag_job(np.diag([1.0, -1.0]), [2.0, 0.5], direction="sup_below")
        with pytest.raises(ValueError, match="needs 0 < p <= 1, got p = 2.0"):
            criteria._diag_job(np.diag([1.0, 2.0]), [0.5, 2.0], direction="inf_above")
        with pytest.raises(ValueError, match="got nan"):
            criteria._norm_job(np.eye(2), [1.0, float("nan")])


def assert_walked_vectors(group, names):
    """The stacks a walk made in a TrialGroup are `names`, each member bit for bit
    the vectors of the public frame it stands for."""
    assert vars(group).keys() - {"seeds", "raw", "eigen"} == names
    for k, s in enumerate(group.seeds):
        raw = frame_at(group.raw, k)
        public = {
            "onb": random_onb(raw.dim, s),
            "parseval": canonical_parseval(raw),
            "upper_one": rescale_upper_bound_one(raw),
        }
        for name in names:
            assert vars(group)[name].vectors[k].tobytes() == public[name].vectors.tobytes(), name


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
            assert sum_diag(np.eye(4), onb, 1.5) == pytest.approx(4.0)

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
            total = sum_norms(t, frame, 2.0)
            assert total == pytest.approx(schatten_norm(t, 2.0) ** 2, rel=1e-10)

    def test_repeated_vector_hs(self):
        assert sum_norms(np.eye(2), E1E1E2, 2.0) == pytest.approx(3.0)

    def test_repeated_vector_trace_enclosure(self):
        t = np.diag([2.0, 0.0])
        total = sum_diag(t, E1E1E2, 1.0)
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
                assert sum_norms(t, basis, p) == pytest.approx(expected, rel=1e-9)

    def test_hs_sum_equals_weighted_trace(self):
        for i, t in enumerate(seeded_operators(5, 20, 1100)):
            frame = random_frame(5, 5 + i % 4 + 1, 100.0, 1200 + i)
            lhs = sum_norms(t, frame, 2.0)
            rhs = float(np.real(np.trace(t.conj().T @ t @ frame.frame_operator)))
            assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_sup_direction(self, p):
        for i, t in enumerate(seeded_operators(5, 25, 1300)):
            frame = rescale_upper_bound_one(random_frame(5, 5 + i % 4 + 1, 100.0, 1400 + i))
            assert sum_norms(t, frame, p) <= schatten_norm(t, p) ** p + 1e-9

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5])
    def test_inf_direction(self, p):
        for i, t in enumerate(seeded_operators(5, 25, 1500)):
            frame = canonical_parseval(random_frame(5, 5 + i % 4 + 1, 100.0, 1600 + i))
            assert sum_norms(t, frame, p) >= schatten_norm(t, p) ** p - 1e-9

    @pytest.mark.parametrize("p", [0.5, 1.0])
    def test_weighted_inf_direction(self, p):
        for i, t in enumerate(seeded_psds(5, 20, 1700)):
            frame = rescale_lower_bound_one(random_frame(5, 5 + i % 4 + 1, 100.0, 1800 + i))
            value = weighted_sum("weighted_diag", t, frame, p)
            assert value >= schatten_norm(t, p) ** p - 1e-9

    def test_split_comparability(self):
        for i, t in enumerate(seeded_operators(4, 10, 1900)):
            t1, t2 = (t + t.conj().T) / 2, (t - t.conj().T) / 2j
            frame = random_frame(4, 6, 100.0, 2000 + i)
            for p in (0.5, 1.0, 2.0, 3.0):
                full = sum_diag(t, frame, p)
                split = sum_diag(t1, frame, p) + sum_diag(t2, frame, p)
                assert full <= 2.0**p * split + 1e-9
                assert sum_diag(t1, frame, p) <= full + 1e-9
                assert sum_diag(t2, frame, p) <= full + 1e-9

    def test_refinement_monotonicity(self, rng):
        t = seeded_operators(3, 1, 2100)[0]
        frame = make_frame(np.eye(3))
        extended = union_frame(frame, rng.standard_normal((3, 2)))
        for p in (0.5, 2.0, 4.0):
            assert sum_norms(t, extended, p) >= sum_norms(t, frame, p) - 1e-12
            assert sum_diag(t, extended, p) >= sum_diag(t, frame, p) - 1e-12
            assert sum_double(t, extended, p) >= sum_double(t, frame, p) - 1e-12


def large_gram():
    """1e8 G G*, G a 6 x 3 complex Gaussian: PSD of rank 3, Hermitian up to the product's rounding."""
    rng = np.random.default_rng(0)
    g = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    return 1e8 * (g @ g.conj().T)


class TestStructureAtScale:
    """Hermitian and PSD are judged relative to the operator's scale."""

    def test_tiny_shift_is_rejected_by_the_diagonal_certificate(self):
        with pytest.raises(ValueError, match="Hermitian"):
            certify_diag_formula(1e-11 * truncated_shift(4), 2.0, trials=5)

    def test_tiny_shift_is_rejected_by_the_inf_double_certificate(self):
        with pytest.raises(ValueError, match="Hermitian"):
            certify_double_formula(1e-11 * truncated_shift(4), 1.0, trials=5)

    def test_large_gram_has_a_psd_power(self):
        root = psd_power(large_gram(), 0.5)
        np.testing.assert_allclose(root @ root, large_gram(), atol=1e-10 * 1e8)

    def test_large_gram_has_a_weighted_diagonal_sum(self):
        frame = rescale_lower_bound_one(random_frame(6, 8, 100.0, 0))
        value = weighted_sum("weighted_diag", large_gram(), frame, 0.5)
        assert value >= schatten_norm(large_gram(), 0.5) ** 0.5 * (1 - 1e-9)

    def test_large_gram_takes_the_inf_diagonal_certificate(self):
        cert = certify_diag_formula(large_gram(), 0.5, trials=10)
        assert cert.direction == "inf_above" and cert.passed

    def test_large_gram_gets_the_trace_endpoint(self):
        rep = endpoint_suites(large_gram(), trials=10)
        assert rep.trace_checked and rep.passed


RECTANGULAR_CALLS = {
    "certify_diag_formula": lambda t: certify_diag_formula(t, 2.0, trials=2),
    "certify_double_formula": lambda t: certify_double_formula(t, 4.0, trials=2),
    "endpoint_suites": lambda t: endpoint_suites(t, trials=2),
    "weighted_diag": lambda t: weighted_sum("weighted_diag", t, random_onb(3, 0), 0.5),
}


@pytest.mark.parametrize("call", RECTANGULAR_CALLS.values(), ids=RECTANGULAR_CALLS.keys())
def test_rectangular_operator_is_named_with_its_shape(call):
    with pytest.raises(ValueError, match=re.escape("must be square, got shape (2, 3)")):
        call(np.ones((2, 3)))


OVERFLOWING_SUMS = {
    "sum_norms": lambda: sum_norms(np.diag([10.0, 2.0]), make_frame(np.eye(2)), 400.0),
    "certify_norm_formula": lambda: certify_norm_formula([[1, 2, 3], [4, 5, 6]], 1000.0, trials=2),
    "certify_double_formula": lambda: certify_double_formula(np.diag([10.0, 2.0]), 400.0, trials=2),
    "integral_criterion": lambda: integral_criterion(
        seeded_operators(4, 1, 1)[0], 1000.0, disk_quadrature(16, 32, 0.9)
    ),
    # the one node's term stays finite at p = 800; the lattice points' terms do not
    "sampling_comparison": lambda: sampling_comparison(
        seeded_operators(4, 1, 1)[0], 800.0, disk_quadrature(1, 1, 0.9), r_lattice(0.3, 0.95)
    ),
}


@pytest.mark.parametrize("call", OVERFLOWING_SUMS.values(), ids=OVERFLOWING_SUMS.keys())
def test_overflowing_power_sum_is_a_named_error(call):
    """A p-th power sum past the double range names p and its largest term;
    it was inf after an overflow RuntimeWarning, and the certificates FAILed
    and the sampling chain's constant was nan."""
    with pytest.raises(ValueError, match=r"overflows at p = (400|800|1000)\.0: its largest term is"):
        call()


def test_weighted_stage_overflow_names_the_callers_p():
    """weighted_double sums over k first, then weights the inner sums by ||f_n||^(2-p):
    when only that weighted stage overflows, the error names the caller's p and the
    largest pairing, 2^1000, whose square root, the inner sum, is finite."""
    frame = make_frame(2.0**500 * np.eye(2))  # weights ||f_n||^1.5 = 2^750
    with pytest.raises(ValueError, match=re.escape(f"p = 0.5: its largest term is {2.0**1000}")):
        weighted_sum("weighted_double", np.eye(2), frame, 0.5)
    assert sum_double(np.eye(2), frame, 0.5) == 2.0**501


def test_power_sum_error_names_the_largest_term():
    with pytest.raises(ValueError, match=re.escape("p = 400.0: its largest term is 10.0")):
        criteria._power_sums("norms", np.array([2.0, 10.0]), 400.0)
    assert criteria._power_sums("norms", np.array([2.0, 10.0]), 300.0) == 2.0**300 + 10.0**300
