"""Frame construction, bounds, synthesis certificates, and generators."""

import collections
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schattenframes import frames
from schattenframes.constructions import compose_with_synthesis, conjugations
from schattenframes.criteria import (
    double_sum_comparison,
    sum_diag,
    sum_double,
    sum_norms,
    weighted_sum,
)
from schattenframes.frames import (
    TRIAL_CONDITION,
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
from schattenframes.serialization import frame_to_dict


def mercedes_frame():
    """Three unit vectors in R^2 at 0, 120, 240 degrees; S = (3/2) I."""
    angles = np.array([0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])
    return make_frame(np.vstack([np.cos(angles), np.sin(angles)]))


E1E1E2 = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


class TestMakeFrame:
    def test_standard_basis_bounds(self):
        frame = make_frame(np.eye(3))
        assert frame.bounds == pytest.approx((1.0, 1.0))

    def test_repeated_vector_bounds(self):
        # frame operator diag(2, 1)
        frame = make_frame(E1E1E2)
        assert frame.bounds == pytest.approx((1.0, 2.0))

    def test_zero_vector_appended(self):
        frame = make_frame([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert frame.bounds == pytest.approx((1.0, 1.0))

    def test_rejects_non_spanning(self):
        with pytest.raises(ValueError, match="span"):
            make_frame([[1.0, 0.0]], dim=2)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            make_frame([[1.0, 0.0, 0.0]], dim=2)

    def test_operator_matches_gram_accumulation(self, rng):
        vecs = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
        frame = make_frame(vecs)
        acc = np.zeros((4, 4), dtype=complex)
        for k in range(9):
            acc += np.outer(vecs[:, k], vecs[:, k].conj())
        np.testing.assert_allclose(frame.frame_operator, acc, atol=1e-12 * np.abs(acc).max())

    def test_frame_inequality_on_probes(self, rng):
        frame = make_frame(rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7)))
        c1, c2 = frame.bounds
        for _ in range(200):
            f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            f /= np.linalg.norm(f)
            total = np.sum(np.abs(frame.vectors.conj().T @ f) ** 2)
            assert c1 * (1 - 1e-10) <= total <= c2 * (1 + 1e-10)

    @pytest.mark.parametrize(
        "vectors",
        [np.zeros((0, 3)), np.ones((2, 3, 4, 5)), np.array([[1.0, 0.0], [np.nan, 1.0]])],
        ids=["no-rows", "four-axes", "nan-entry"],
    )
    def test_of_rejects_bad_shape_or_nonfinite_entry(self, vectors):
        shape = re.escape(str(vectors.shape))
        with pytest.raises(ValueError, match=f"expected finite vectors .* got shape {shape}"):
            Frame.of(vectors)

    def test_vectors_immutable(self):
        frame = make_frame(np.eye(2))
        with pytest.raises(ValueError):
            frame.vectors[0, 0] = 5.0


class TestSynthesis:
    def test_standard_basis_is_identity(self):
        np.testing.assert_allclose(make_frame(np.eye(3)).vectors, np.eye(3))

    def test_columns_are_vectors(self):
        a = make_frame(E1E1E2).vectors
        np.testing.assert_allclose(a, [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        for k in range(3):
            e_k = np.zeros(3)
            e_k[k] = 1.0
            np.testing.assert_array_equal(a @ e_k, a[:, k])

    def test_mercedes_columns(self):
        a = mercedes_frame().vectors
        np.testing.assert_allclose(
            a[:, 1], [np.cos(2 * np.pi / 3), np.sin(2 * np.pi / 3)], atol=1e-15
        )

    def test_gram_identity(self, rng):
        frame = make_frame(rng.standard_normal((3, 6)))
        a = frame.vectors
        np.testing.assert_allclose(a @ a.conj().T, frame.frame_operator, atol=1e-12)


class TestCertifySynthesis:
    def test_standard_basis(self):
        cert = certify_synthesis(make_frame(np.eye(3)))
        assert cert.passed
        assert cert.op_norm_sq == pytest.approx(1.0)
        assert cert.rank == 3

    def test_repeated_vector(self):
        cert = certify_synthesis(make_frame(E1E1E2))
        assert cert.passed
        assert cert.op_norm_sq == pytest.approx(2.0)
        assert cert.upper_bound == pytest.approx(2.0)
        # repeated vectors: A is not injective
        assert cert.rank == 2

    def test_parseval_mercedes(self):
        cert = certify_synthesis(canonical_parseval(mercedes_frame()))
        assert cert.passed
        assert cert.op_norm_sq == pytest.approx(1.0, abs=1e-9)

    def test_tampered_frame_fails(self):
        frame = make_frame(np.eye(3))
        broken = dataclasses.replace(frame, lower_bound=2.0, upper_bound=3.0)
        cert = certify_synthesis(broken)
        assert not cert.passed
        assert cert.failures

    def test_rectangular_norm_from_lapack_svd(self):
        frame = random_frame(8, 13, 100.0, 4)
        cert = certify_synthesis(frame)
        assert cert.passed
        expected = np.linalg.norm(frame.vectors, 2) ** 2
        assert abs(cert.op_norm_sq - expected) <= 1e-12 * expected

    def test_vector_norms_below_upper_bound(self, rng):
        for seed in range(10):
            frame = random_frame(4, 6, 50.0, seed)
            rescaled = rescale_upper_bound_one(frame)
            lengths = np.linalg.norm(rescaled.vectors, axis=0)
            assert np.all(lengths <= 1.0 + 1e-10)


class TestRescaling:
    def test_parseval_of_onb_is_identity(self):
        frame = make_frame(np.eye(3))
        np.testing.assert_allclose(canonical_parseval(frame).vectors, frame.vectors, atol=1e-12)

    def test_parseval_mercedes_scaling(self):
        parseval = canonical_parseval(mercedes_frame())
        np.testing.assert_allclose(
            np.linalg.norm(parseval.vectors, axis=0), np.sqrt(2.0 / 3.0), atol=1e-12
        )
        np.testing.assert_allclose(parseval.frame_operator, np.eye(2), atol=1e-9)

    def test_parseval_repeated_vector(self):
        parseval = canonical_parseval(make_frame(E1E1E2))
        expected = np.array([[2**-0.5, 2**-0.5, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(parseval.vectors, expected, atol=1e-12)

    def test_parseval_idempotent(self, rng):
        frame = make_frame(rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)))
        once = canonical_parseval(frame)
        twice = canonical_parseval(once)
        np.testing.assert_allclose(once.vectors, twice.vectors, atol=1e-9)
        assert once.bounds == pytest.approx((1.0, 1.0), abs=1e-9)

    def test_upper_rescale(self):
        assert rescale_upper_bound_one(make_frame(np.eye(3))).bounds == pytest.approx((1, 1))
        assert rescale_upper_bound_one(make_frame(E1E1E2)).bounds == pytest.approx((0.5, 1.0))
        assert rescale_upper_bound_one(mercedes_frame()).bounds == pytest.approx((1.0, 1.0))

    def test_lower_rescale(self):
        rescaled = rescale_lower_bound_one(make_frame(E1E1E2))
        assert rescaled.bounds == pytest.approx((1.0, 2.0))


class TestRandomGenerators:
    def test_onb_dim_one(self):
        frame = random_onb(1, 7)
        assert abs(np.abs(frame.vectors[0, 0]) - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 99])
    def test_onb_bounds(self, seed):
        frame = random_onb(5, seed)
        assert frame.lower_bound == pytest.approx(1.0, abs=1e-10)
        assert frame.upper_bound == pytest.approx(1.0, abs=1e-10)

    def test_onb_seeds_distinct_and_reproducible(self):
        a = random_onb(4, 0).vectors
        b = random_onb(4, 1).vectors
        assert np.linalg.norm(a - b) > 1e-6
        np.testing.assert_array_equal(a, random_onb(4, 0).vectors)

    def test_onb_phase_convention(self):
        vecs = random_onb(5, 3).vectors
        for k in range(5):
            col = vecs[:, k]
            pivot = col[np.nonzero(np.abs(col) > 1e-14)[0][0]]
            assert pivot.imag == pytest.approx(0.0, abs=1e-12)
            assert pivot.real > 0

    def test_batched_phase_fix_matches_column_loop(self, rng):
        def reference(q):
            q = q.copy()
            for j in range(q.shape[1]):
                col = q[:, j]
                nz = np.nonzero(np.abs(col) > 1e-14)[0]
                if nz.size:
                    pivot = col[nz[0]]
                    q[:, j] = col * (np.conj(pivot) / np.abs(pivot))
            return q

        stack = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        stack[1, :2, 0] = 0.0  # pivot below the first row
        stack[2, :, 3] = 0.0  # all-zero column stays unchanged
        fixed = frames._phase_fix(stack)
        for k in range(3):
            np.testing.assert_array_equal(fixed[k], reference(stack[k]))

    def test_random_frame_parseval_target(self):
        frame = random_frame(3, 5, 1.0, 11)
        assert frame.bounds == pytest.approx((1.0, 1.0), abs=1e-9)

    def test_random_frame_passes_certificate(self):
        frame = random_frame(2, 3, 50.0, 5)
        assert certify_synthesis(frame).passed

    def test_square_count(self):
        frame = random_frame(4, 4, 100.0, 2)
        assert frame.lower_bound > 0
        assert frame.upper_bound > 0

    @pytest.mark.parametrize("target", [1.5, 2.0, 10.0])
    def test_condition_target_met(self, target):
        for seed in range(5):
            frame = random_frame(4, 6, target, seed)
            assert frame.condition <= target * (1 + 1e-12)

    def test_rejects_count_below_dim(self):
        with pytest.raises(ValueError, match="count"):
            random_frame(4, 3, 2.0, 0)

    def test_rejects_target_below_one(self):
        with pytest.raises(ValueError, match="condition_target"):
            random_frame(2, 4, 0.5, 0)

    def test_reproducible(self):
        np.testing.assert_array_equal(
            random_frame(3, 7, 5.0, 42).vectors, random_frame(3, 7, 5.0, 42).vectors
        )


def reference_random_frame(dim, count, condition_target, seed):
    """random_frame one frame at a time, through make_frame (the pre-batching loop)."""
    rng = np.random.default_rng(seed)
    n_bases = -(-count // dim)
    blocks = [random_onb(dim, s).vectors for s in rng.integers(0, 2**62, size=n_bases)]
    base = np.hstack(blocks)[:, :count]
    g = rng.standard_normal((dim, count)) + 1j * rng.standard_normal((dim, count))
    raw = base + (0.25 / np.sqrt(dim)) * g
    frame = make_frame(raw)
    if condition_target == 1.0:
        return canonical_parseval(frame), False
    if frame.condition <= condition_target:
        return frame, False
    parseval = canonical_parseval(frame).vectors
    for attempt in range(1, 51):
        t = 2.0**-attempt
        try:
            blended = make_frame((1.0 - t) * parseval + t * raw)
        except ValueError:
            continue
        if blended.condition <= condition_target:
            return blended, True
    raise AssertionError("reference did not converge")


class TestBatchedGenerator:
    @pytest.mark.parametrize(
        "dim,count,target",
        [(1, 2, 1.2), (3, 7, 1.2), (3, 5, 1.5), (4, 6, 2.0), (5, 5, 3.0), (8, 13, 5.0),
         (3, 7, 1.0), (8, 16, 1.0), (8, 13, TRIAL_CONDITION)],
    )
    def test_matches_one_frame_reference_bitwise(self, dim, count, target):
        seeds = list(range(30))
        stack = frames._random_frames(dim, count, target, seeds)
        blended = 0
        for k, seed in enumerate(seeds):
            expected, was_blended = reference_random_frame(dim, count, target, seed)
            blended += was_blended
            np.testing.assert_array_equal(stack.vectors[k], expected.vectors)
            assert stack.lower_bound[k] == expected.lower_bound
            assert stack.upper_bound[k] == expected.upper_bound
            single = random_frame(dim, count, target, seed)
            np.testing.assert_array_equal(single.vectors, expected.vectors)
            np.testing.assert_array_equal(single.frame_operator, expected.frame_operator)
            assert single.bounds == expected.bounds
        if dim > 1 and 1.0 < target <= 5.0:  # every frame in C^1 has condition 1
            assert blended > 0  # the masked blend loop ran


class TestUnionFrame:
    def test_onb_union_onb(self):
        frame = union_frame(make_frame(np.eye(3)), make_frame(np.eye(3)))
        assert frame.bounds == pytest.approx((2.0, 2.0))

    def test_union_with_zero_vectors(self):
        frame = union_frame(make_frame(np.eye(3)), np.zeros((3, 2)))
        assert frame.bounds == pytest.approx((1.0, 1.0))

    def test_union_with_single_vector(self):
        # S = I + e1 e1*
        frame = union_frame(make_frame(np.eye(2)), [[1.0, 0.0]])
        assert frame.bounds == pytest.approx((1.0, 2.0))

    def test_operator_additivity_and_weyl(self, rng):
        a = make_frame(rng.standard_normal((3, 5)))
        b = make_frame(rng.standard_normal((3, 4)))
        joined = union_frame(a, b)
        np.testing.assert_allclose(
            joined.frame_operator, a.frame_operator + b.frame_operator, atol=1e-12
        )
        assert joined.lower_bound >= a.lower_bound + b.lower_bound - 1e-10
        assert joined.upper_bound <= a.upper_bound + b.upper_bound + 1e-10

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            union_frame(make_frame(np.eye(2)), np.zeros((3, 1)))


def assert_rel_close(actual, expected, rel=1e-12):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert np.max(np.abs(actual - expected)) <= rel * np.max(np.abs(expected))


# (dim, trials, seed): dim 1, trials below dim, and trials not a multiple of dim
ENSEMBLE_CASES = [(1, 3, 0), (3, 7, 5), (4, 2, 11), (8, 19, 100)]


class TestFrameEnsemble:
    @pytest.mark.parametrize("dim,trials,seed", ENSEMBLE_CASES)
    def test_groups_partition_trials_by_count(self, dim, trials, seed):
        ensemble = FrameEnsemble(dim, trials, seed)
        seen = []
        for group in ensemble.groups:
            count = group.raw.vectors.shape[2]
            assert all(dim + (i % dim) + 1 == count for i in group.indices)
            assert group.onb.vectors.shape == (len(group.indices), dim, dim)
            assert group.raw.vectors.shape == (len(group.indices), dim, count)
            seen += list(group.indices)
        assert sorted(seen) == list(range(trials))

    @pytest.mark.parametrize("dim,trials,seed", ENSEMBLE_CASES)
    def test_members_match_generators_bitwise(self, dim, trials, seed):
        for group in FrameEnsemble(dim, trials, seed).groups:
            count = group.raw.vectors.shape[2]
            for k, i in enumerate(group.indices):
                onb = random_onb(dim, seed + i)
                raw = random_frame(dim, count, TRIAL_CONDITION, seed + i)
                np.testing.assert_array_equal(group.onb.vectors[k], onb.vectors)
                np.testing.assert_array_equal(group.raw.vectors[k], raw.vectors)

    @pytest.mark.parametrize("dim,trials,seed", ENSEMBLE_CASES)
    def test_bounds_and_variants_match_single_frame_path(self, dim, trials, seed):
        for group in FrameEnsemble(dim, trials, seed).groups:
            stacks = {
                "onb": group.onb,
                "raw": group.raw,
                "parseval": canonical_parseval(group.raw),
                "upper_one": rescale_upper_bound_one(group.raw),
                "lower_one": rescale_lower_bound_one(group.raw),
            }
            for k in range(len(group.indices)):
                raw = group.raw[k]
                singles = {
                    "onb": make_frame(group.onb.vectors[k]),
                    "raw": make_frame(raw.vectors),
                    "parseval": canonical_parseval(raw),
                    "upper_one": rescale_upper_bound_one(raw),
                    "lower_one": rescale_lower_bound_one(raw),
                }
                for name, single in singles.items():
                    stack = stacks[name]
                    assert_rel_close(stack.vectors[k], single.vectors)
                    assert_rel_close(stack.lower_bound[k], single.lower_bound)
                    assert_rel_close(stack.upper_bound[k], single.upper_bound)
                np.testing.assert_allclose(raw.frame_operator, singles["raw"].frame_operator,
                                           rtol=0, atol=1e-12 * raw.upper_bound)

    def test_stacks_are_read_only(self):
        group = FrameEnsemble(3, 4, 0).groups[0]
        for arr in (group.onb.vectors, group.raw.vectors, group.raw.lower_bound,
                    group.raw.upper_bound, group.raw[0].frame_operator):
            with pytest.raises(ValueError):
                arr.flat[0] = 0.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="trials"):
            FrameEnsemble(3, 0, 0)
        with pytest.raises(ValueError, match="dim"):
            FrameEnsemble(0, 3, 0)

    def test_regime_stacks(self):
        ensemble = FrameEnsemble(3, 6, 2)
        for parseval in (True, False):
            stacks = list(ensemble.regime_stacks(parseval))
            assert len(stacks) == 2 * len(ensemble.groups)
            for onb, variant in zip(stacks[::2], stacks[1::2]):
                np.testing.assert_allclose(onb.upper_bound, 1.0, atol=1e-12)
                np.testing.assert_allclose(variant.upper_bound, 1.0, atol=1e-12)
                if parseval:
                    np.testing.assert_allclose(variant.lower_bound, 1.0, atol=1e-12)


def assert_same_certificate(stacked, k, single):
    """Member k of a stacked certificate equals a one-frame certificate bit for bit."""
    for field in dataclasses.fields(single):
        value, expected = getattr(stacked, field.name), getattr(single, field.name)
        if field.name not in ("dim", "count", "tolerance"):
            value = value[k]
        assert value == expected, field.name


def reference_synthesis_measurements(frame, seed, n_probes=200):
    """op_norm_sq, analysis_identity_dev and rank of one frame on 2-D arrays:
    ||A* f||^2 against <S f, f> with S = A A* made exactly Hermitian."""
    a = frame.vectors
    svals = np.linalg.svd(a, compute_uv=False)
    rng = np.random.default_rng(seed)
    probes = rng.standard_normal((frame.dim, n_probes)) + 1j * rng.standard_normal(
        (frame.dim, n_probes)
    )
    probes /= np.linalg.norm(probes, axis=0)
    direct = np.linalg.norm(a.conj().T @ probes, axis=0) ** 2
    s = a @ a.conj().T
    s = 0.5 * (s + s.conj().T)
    analysis = np.real(np.sum(probes.conj() * (s @ probes), axis=0))
    dev = float(np.max(np.abs(analysis - direct) / np.maximum(analysis, 1e-300)))
    return float(svals[0]) ** 2, dev, int(np.sum(svals > 1e-12 * svals[0]))


def synthesis_variants(stack):
    return Frame.concat([stack, canonical_parseval(stack), rescale_upper_bound_one(stack)])


class TestStackedSynthesisCertificate:
    @pytest.mark.parametrize("dim,trials,seed", [(3, 7, 5), (3, 20, 0), (8, 19, 100), (8, 40, 3)])
    def test_variants_match_single_frame_bitwise(self, dim, trials, seed):
        for group in FrameEnsemble(dim, trials, seed).groups:
            seeds = [seed + i for i in group.indices] * 3
            for stack in (group.onb, group.raw):
                variants = synthesis_variants(stack)
                cert = certify_synthesis(variants, seed=seeds)
                assert cert.passed.shape == (len(seeds),)
                for k in range(len(seeds)):
                    frame = variants[k]
                    assert_same_certificate(cert, k, certify_synthesis(frame, seed=seeds[k]))
                    assert reference_synthesis_measurements(frame, seeds[k]) == (
                        cert.op_norm_sq[k], cert.analysis_identity_dev[k], cert.rank[k]
                    )

    def test_falsified_member_fails_at_its_index(self):
        stack = FrameEnsemble(3, 9, 0).groups[0].raw
        k = 1
        lower, upper = stack.lower_bound.copy(), stack.upper_bound.copy()
        lower[k], upper[k] = 2.0, 3.0
        cert = certify_synthesis(Frame(stack.vectors, lower, upper), seed=[7, 8, 9])
        broken = dataclasses.replace(stack[k], lower_bound=2.0, upper_bound=3.0)
        single = certify_synthesis(broken, seed=8)
        assert not single.passed and single.failures
        assert cert.passed.tolist() == [True, False, True]
        assert cert.failures == ((), single.failures, ())

    def test_probes_drawn_once_per_distinct_seed(self, monkeypatch):
        drawn = collections.Counter()
        probes = frames._probes

        def counted(dim, n_probes, seed):
            drawn[seed] += 1
            return probes(dim, n_probes, seed)

        monkeypatch.setattr(frames, "_probes", counted)
        variants = synthesis_variants(FrameEnsemble(3, 9, 0).groups[0].raw)
        assert certify_synthesis(variants, seed=[4, 5, 6] * 3).passed.all()
        assert drawn == {4: 1, 5: 1, 6: 1}

    def test_rejects_seed_count_mismatch(self):
        stack = FrameEnsemble(3, 9, 0).groups[0].raw
        for seed in (0, [1, 2]):
            with pytest.raises(ValueError, match="one seed per frame"):
                certify_synthesis(stack, seed=seed)


ONE_FRAME_CALLS = {
    "sum_norms": lambda f: sum_norms(np.eye(3), f, 1.0),
    "sum_diag": lambda f: sum_diag(np.eye(3), f, 1.0),
    "sum_double": lambda f: sum_double(np.eye(3), f, 1.0),
    "weighted_sum": lambda f: weighted_sum("weighted_norms", np.eye(3), f, 1.0),
    "compose_with_synthesis": lambda f: compose_with_synthesis(np.eye(3), f),
    "conjugations": lambda f: conjugations(np.eye(3), f),
    "union_frame": lambda f: union_frame(f, np.eye(3)),
    "union_frame_appended": lambda f: union_frame(make_frame(np.eye(3)), f),
    "make_frame": make_frame,
    "frame_to_dict": frame_to_dict,
}


@pytest.mark.parametrize("call", ONE_FRAME_CALLS.values(), ids=ONE_FRAME_CALLS.keys())
def test_one_frame_functions_reject_a_stack(call):
    stack = FrameEnsemble(3, 9, 0).groups[0].raw
    with pytest.raises(ValueError, match=r"expected one frame, got a stack of shape \(3, 3, 4\)"):
        call(stack)
    call(stack[0])  # each member is accepted


def assert_same_frame(stacked, k, single):
    """Member k of a stack equals a one-frame Frame bit for bit."""
    member = stacked[k]
    np.testing.assert_array_equal(member.vectors, single.vectors)
    assert member.bounds == single.bounds
    assert type(single.lower_bound) is float and type(single.upper_bound) is float
    np.testing.assert_array_equal(stacked.frame_operator[k], single.frame_operator)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(
    dim=st.integers(1, 6),
    extra=st.integers(0, 7),
    n=st.integers(1, 4),
    exponent=st.floats(-4.0, 4.0),
    p=st.floats(0.25, 8.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_stack_members_equal_one_frame_path(dim, extra, n, exponent, p, seed):
    """Every operation on a stack equals, member by member, the one-frame path."""
    count = dim + extra % (dim + 2)  # dim .. 2 dim + 1
    rng = np.random.default_rng(seed)
    v = 10.0**exponent * (
        rng.standard_normal((n, dim, count)) + 1j * rng.standard_normal((n, dim, count))
    )
    ops = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    seeds = [seed + k for k in range(n)]
    stack = Frame.of(v.copy())
    singles = [make_frame(v[k]) for k in range(n)]
    for variant in (lambda f: f, canonical_parseval, rescale_upper_bound_one,
                    rescale_lower_bound_one):
        stacked = variant(stack)
        for k in range(n):
            assert_same_frame(stacked, k, variant(singles[k]))
    cert = certify_synthesis(stack, seed=seeds)
    comparison = double_sum_comparison(ops, stack, p)
    for k, single in enumerate(singles):
        assert_same_certificate(cert, k, certify_synthesis(single, seed=seeds[k]))
        expected = double_sum_comparison(ops[k], single, p)
        for field in dataclasses.fields(expected):
            value = getattr(comparison, field.name)
            if field.name not in ("p", "tolerance") and value is not None:
                value = value[k]
            assert value == getattr(expected, field.name), field.name
