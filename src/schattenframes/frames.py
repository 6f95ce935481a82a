"""Finite frames: frame operators, exact frame bounds,
the synthesis-operator certificate, canonical Parseval rescaling, seeded
generators for random orthonormal bases and random frames, and the seeded
trial-frame ensemble that the sampled certificates share, which builds its
trial groups one at a time as a walk reaches them.

A family {f_n} in C^d is a frame when C1 ||f||^2 <= sum_n |<f, f_n>|^2 <=
C2 ||f||^2 for all f with C1 > 0; in finite dimension the optimal bounds are
the extreme eigenvalues of the frame operator S = sum_n f_n f_n*.  The
synthesis operator, sending the k-th coefficient basis vector to f_k, is the
(dim, count) matrix of the vectors themselves, so A A* = S.

The public functions take one `Frame`.  The sampled certificates batch their
work over private `_Stack`s of frames of one shape along a leading axis.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .linalg import CERTIFICATE_TOL, IDENTITY_TOL, RANK_TOL, SPANNING_TOL, _check_count, _check_seed
from .linalg import _BLOCK_ENTRIES, _gaussian, _is_real, _verdict, as_matrix

__all__ = [
    "Frame",
    "TrialGroup",
    "FrameEnsemble",
    "SynthesisCertificate",
    "make_frame",
    "certify_synthesis",
    "canonical_parseval",
    "rescale_upper_bound_one",
    "rescale_lower_bound_one",
    "random_onb",
    "random_frame",
    "union_frame",
]

#: Condition number C2/C1 that the raw frames of a FrameEnsemble stay below.
TRIAL_CONDITION = 100.0


@dataclass(frozen=True, eq=False)
class Frame:
    """An ordered frame with its optimal bounds.

    `vectors` has shape (dim, count), column k being the k-th frame vector.
    Repeated vectors are allowed and meaningful (families keep multiplicity).
    Build frames with `make_frame`; their vectors are read-only.
    """

    vectors: np.ndarray
    lower_bound: float
    upper_bound: float

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def count(self) -> int:
        return self.vectors.shape[1]

    @property
    def frame_operator(self) -> np.ndarray:
        """S = sum_n f_n f_n*, computed on read, read-only."""
        s = _frame_operators(self.vectors)
        s.flags.writeable = False
        return s

    @property
    def bounds(self) -> tuple:
        return (self.lower_bound, self.upper_bound)

    @property
    def condition(self) -> float:
        return self.upper_bound / self.lower_bound


#: n frames of one shape, the batch form the private kernels take: member k has the
#: vectors vectors[k] of an (n, dim, count) array and the bounds lower_bound[k] and
#: upper_bound[k] of two length-n arrays.
_Stack = namedtuple("_Stack", "vectors lower_bound upper_bound")


def _stack_of(frame: Frame) -> _Stack:
    """`frame` as a stack of one, sharing its vectors."""
    return _Stack(frame.vectors[None], np.array([frame.lower_bound]), np.array([frame.upper_bound]))


def _sole(batched):
    """The one-frame result of a kernel's result over a stack of one.

    Each per-frame field of the dataclass `batched`, an array or a tuple over
    the stack (`failures` included), becomes its one member, an array's as a
    Python scalar; the other fields are kept.
    """
    members = {}
    for field in fields(batched):
        value = getattr(batched, field.name)
        if isinstance(value, (np.ndarray, tuple)):
            (members[field.name],) = value.tolist() if isinstance(value, np.ndarray) else value
    return replace(batched, **members)


def _coerce_vectors(vectors) -> np.ndarray:
    """Stack input vectors as columns of a (dim, count) complex matrix.

    An array must be that matrix already; any other shape, or an input that holds no
    vectors (a number, None), is rejected by name.
    """
    if isinstance(vectors, Frame):
        return vectors.vectors
    if isinstance(vectors, np.ndarray):
        if vectors.ndim != 2:
            raise ValueError(f"expected vectors of shape (dim, count), got shape {vectors.shape}")
        return vectors
    if not np.iterable(vectors):
        raise ValueError(f"expected a (dim, count) array or a sequence of vectors, got {vectors!r}")
    cols = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in vectors]
    if not cols:
        raise ValueError("a frame needs at least one vector")
    lengths = {c.shape[0] for c in cols}
    if len(lengths) != 1:
        raise ValueError(f"vectors have inconsistent lengths {sorted(lengths)}")
    return np.column_stack(cols)


def _spanning(lower, upper) -> np.ndarray:
    """Whether lambda_min(S) = `lower` exceeds SPANNING_TOL * lambda_max(S), elementwise."""
    return lower > SPANNING_TOL * np.maximum(upper, 1e-300)


def _spanning_bounds(vectors: np.ndarray, seeds=None) -> tuple:
    """`_decomposed(vectors)` of a frame or a stack, failing unless every family spans.

    The failure names the first family that does not, by its seed seeds[k]
    for member k of a stack.
    """
    eigen, lower, upper = _decomposed(vectors)
    spans = _spanning(lower, upper)
    if not spans.all():
        k = np.unravel_index(np.argmin(spans), spans.shape)  # () for one frame
        raise ValueError(
            f"family does not span C^{vectors.shape[-2]}" + (f" (seed {seeds[k[0]]})" if k else "")
            + f": lambda_min(S) = {lower[k]:.3e} <= tol {SPANNING_TOL * max(upper[k], 1e-300):.3e}"
        )
    return eigen, lower, upper


def make_frame(vectors) -> Frame:
    """The one constructor of a Frame from a vector family, its bounds from one eigh.

    `vectors` may be a sequence of vectors of one length or a (dim, count)
    array whose columns are the vectors; the frame holds a read-only copy.
    Fails unless the family spans: lambda_min(S) must exceed SPANNING_TOL *
    lambda_max(S).
    """
    vectors = as_matrix(_coerce_vectors(vectors))
    _, lower, upper = _spanning_bounds(vectors)
    return Frame(vectors, float(lower), float(upper))


@dataclass(frozen=True, eq=False)
class SynthesisCertificate:
    """Measured synthesis-operator properties with pass/fail verdict.

    Certifies that the extreme eigenvalues of S = A A*, s_min(A)^2 (0 when
    count < dim) and ||A||^2 = s_1(A)^2 from the singular values of A, lie in
    [C1, C2], that C1 > 0, and on seeded unit probes f the analysis identity
    sum_n |<f, f_n>|^2 = <S f, f> (||A* f||^2 against Re <S f, f>) and the
    frame inequality.  Valid bounds pass even when not optimal; a claimed C1
    above lambda_min(S) or a C2 below lambda_max(S) fails.  `rank` is the
    numerical rank of A (not injective in general, e.g. for repeated vectors).
    `failures` holds the messages of the failed checks.  `_certify_synthesis`
    fills every field but `dim` and `count` with one entry per frame of a stack.
    """

    dim: int
    count: int
    lower_bound: float
    upper_bound: float
    op_norm_sq: float
    analysis_identity_dev: float
    rank: int
    passed: bool
    failures: tuple


#: Seeded unit probes per frame on which certify_synthesis checks the analysis
#: identity and the frame inequality.
SYNTHESIS_PROBES = 200


def _probes(dim: int, seed: int) -> np.ndarray:
    """Seeded unit probe vectors as the columns of a (dim, SYNTHESIS_PROBES) matrix."""
    probes = _gaussian(np.random.default_rng(seed), (dim, SYNTHESIS_PROBES))
    return probes / np.linalg.norm(probes, axis=0)


def certify_synthesis(frame: Frame, seed: int = 0) -> SynthesisCertificate:
    """Certify the synthesis operator's norm bracket and analysis identity,
    on the unit probes drawn from `seed`."""
    _check_seed(seed)
    return _sole(_certify_synthesis([_stack_of(frame)], [seed])[0])


def _certify_synthesis(stacks, seeds) -> list:
    """The certificates of stacks of frames in one C^dim, each of len(seeds) frames.

    Member k of every stack is probed with seeds[k], and each certificate
    holds one entry per member of its stack.  Trial by trial, the probes of
    seeds[k] are drawn once and applied to member k of each stack, one
    product S_k F per stack, and the identity's worst deviation and the probe
    sums' range are taken once over all of the trial's stacks before its
    probes are dropped.  The frame operators and the SVD are taken once per
    stack.  The products A_k* F go over blocks of probes of at most
    _BLOCK_ENTRIES entries (but 8 probes at least): 16 probes at a time for
    the 399 vectors of a Bergman lattice frame, all 200 at once for at most
    40 vectors.  Every block starts at a multiple of 8 probes and holds a
    multiple of 8, so the norms keep the one-shot product's bits: OpenBLAS's
    zgemm takes these columns in groups of 4 and rounds a column of a ragged
    group differently, so blocks of, say, 41 probes would not.  Measured on
    OpenBLAS's SkylakeX kernels only; other kernels may group columns
    otherwise (ROADMAP item 15).
    """
    dim = stacks[0].vectors.shape[-2]
    operators = [_frame_operators(stack.vectors) for stack in stacks]
    dev, lo, hi = np.empty((3, len(stacks), len(seeds)))  # at [stack, k], filled trial by trial
    direct, analysis = np.empty((2, len(stacks), SYNTHESIS_PROBES))  # at [stack, probe]
    for k, seed in enumerate(seeds):
        f = _probes(dim, seed)
        for i, (stack, s) in enumerate(zip(stacks, operators)):
            # ||A* f||^2 by the matrix product against <S f, f> through the frame operator
            adjoint = stack.vectors[k].conj().T
            width = max(8, _BLOCK_ENTRIES // adjoint.shape[0] // 8 * 8)
            for j in range(0, SYNTHESIS_PROBES, width):
                direct[i, j : j + width] = np.linalg.norm(adjoint @ f[:, j : j + width], axis=0) ** 2
            analysis[i] = np.real(np.sum(f.conj() * (s[k] @ f), axis=0))
        ratio = np.abs(analysis - direct) / np.maximum(analysis, 1e-300)
        # the identity's worst deviation and the probe sums' range for the frame inequality
        dev[:, k], lo[:, k], hi[:, k] = ratio.max(axis=1), analysis.min(axis=1), analysis.max(axis=1)
    certificates = []
    for (vectors, c1, c2), dev, lo, hi in zip(stacks, dev, lo, hi):
        count = vectors.shape[-1]
        # LAPACK SVD of A itself, independent of the frame operator the bounds came from;
        # lambda(S) runs from s_min(A)^2, 0 when fewer vectors than dim, to s_1(A)^2
        svals = np.linalg.svd(vectors, compute_uv=False)
        op2 = svals[:, 0] ** 2
        least2 = svals[:, -1] ** 2 if count >= dim else np.zeros(len(vectors))
        rank = np.sum(svals > RANK_TOL * svals[:, :1], axis=-1)
        checks = (
            ~np.all(_verdict(np.stack([least2, op2]), c1, c2, CERTIFICATE_TOL, c2)[1], axis=0),
            ~(c1 > 0),
            dev > IDENTITY_TOL,
            (lo < c1 * (1 - IDENTITY_TOL) - CERTIFICATE_TOL)
            | (hi > c2 * (1 + IDENTITY_TOL) + CERTIFICATE_TOL),
        )
        failures = [()] * len(vectors)
        for k in np.flatnonzero(np.any(checks, axis=0)):
            b1, b2 = float(c1[k]), float(c2[k])
            messages = (
                f"s_min(A)^2, ||A||^2 = {least2[k]:.6e}, {op2[k]:.6e}"
                f" outside [{b1:.6e}, {b2:.6e}]",
                f"frame operator not invertible: lambda_min = {b1:.3e}",
                f"analysis identity deviation {dev[k]:.3e}",
                f"probe sums [{lo[k]:.6e}, {hi[k]:.6e}] escape bounds [{b1}, {b2}]",
            )
            failures[k] = tuple(m for m, failed in zip(messages, checks) if failed[k])
        certificates.append(
            SynthesisCertificate(
                dim=dim,
                count=count,
                lower_bound=c1,
                upper_bound=c2,
                op_norm_sq=op2,
                analysis_identity_dev=dev,
                rank=rank,
                passed=~np.any(checks, axis=0),
                failures=tuple(failures),
            )
        )
    return certificates


def _frame_operators(vectors: np.ndarray) -> np.ndarray:
    """S = sum_n f_n f_n* (made exactly Hermitian) of a frame or of each frame in a stack."""
    s = vectors @ np.conj(vectors).swapaxes(-1, -2)
    s += np.conj(s).swapaxes(-1, -2)
    s *= 0.5
    return s


def _decomposed(vectors: np.ndarray) -> tuple:
    """The eigh (w, v) of S of a frame or of each frame in a stack, and the bounds
    lambda_min(S) and lambda_max(S) that its eigenvalues give."""
    w, v = np.linalg.eigh(_frame_operators(vectors))
    return (w, v), w[..., 0].copy(), w[..., -1].copy()


def _parseval_vectors(vectors: np.ndarray, eigen: tuple | None = None) -> np.ndarray:
    """S^(-1/2) f_n for a frame or for each frame in a stack.

    `eigen` is the eigh (w, v) of S when the caller has it; else S is decomposed here.
    """
    w, v = _decomposed(vectors)[0] if eigen is None else eigen
    # nonincreasing order, tie-breaking as argsort does
    order = np.argsort(w, axis=-1)[..., ::-1]
    w = np.take_along_axis(w, order, axis=-1)
    v = np.take_along_axis(v, order[..., None, :], axis=-1)
    inv_root = (v * (1.0 / np.sqrt(w))[..., None, :]) @ np.conj(v).swapaxes(-1, -2)
    return inv_root @ vectors


def canonical_parseval(frame: Frame) -> Frame:
    """Apply S^(-1/2) to every vector; the result is Parseval."""
    return make_frame(_parseval_vectors(frame.vectors))


def _divided(frame, bound) -> np.ndarray:
    """The vectors of a Frame or a _Stack divided by sqrt(bound), frame by frame."""
    return frame.vectors / np.sqrt(bound)[..., None, None]


def rescale_upper_bound_one(frame: Frame) -> Frame:
    """Divide all vectors by sqrt(C2); new bounds are (C1/C2, 1)."""
    return make_frame(_divided(frame, frame.upper_bound))


def rescale_lower_bound_one(frame: Frame) -> Frame:
    """Divide all vectors by sqrt(C1); new bounds are (1, C2/C1)."""
    return make_frame(_divided(frame, frame.lower_bound))


def _unit(vectors: np.ndarray) -> _Stack:
    """The _Stack of derived frames `vectors` at the bounds (1, 1) their derivation guarantees."""
    ones = np.ones(len(vectors))
    return _Stack(vectors, ones, ones)


class TrialGroup:
    """The trials of a FrameEnsemble that share one frame count.

    `seeds` are their trial seeds (ensemble seed + i for trial i), `raw` is
    the _Stack of their raw trial frames and `eigen` is the eigh (w, v) of
    each raw frame's operator S, the one its bounds came from.  The other
    stacks are made on first read and kept with the group: `onb` is the ONBs,
    and `parseval`, `upper_one` and `lower_one` are the raw frames made
    Parseval (the inf regime) and rescaled to upper bound 1 (the sup regime)
    and to lower bound 1.  `parseval` applies S^(-1/2) from `eigen`, so a
    group takes one eigh per raw frame.  Each carries the bounds its
    derivation guarantees, measured by no eigh: (1, 1) for `onb` and
    `parseval`, (C1/C2, 1) for `upper_one` and (1, C2/C1) for `lower_one`,
    with C1 and C2 the raw bounds.  `stacks` lists all five.
    """

    def __init__(self, seeds: range, raw: _Stack, eigen: tuple):
        self.seeds, self.raw, self.eigen = seeds, raw, eigen

    onb = cached_property(lambda self: _unit(_onb_stack(self.raw.vectors.shape[1], self.seeds)))
    parseval = cached_property(lambda self: _unit(_parseval_vectors(self.raw.vectors, self.eigen)))
    upper_one = cached_property(lambda self: self._rescaled(self.raw.upper_bound))
    lower_one = cached_property(lambda self: self._rescaled(self.raw.lower_bound))

    def _rescaled(self, bound) -> _Stack:
        """The raw frames divided by sqrt(bound), at the raw bounds divided by bound."""
        raw = self.raw
        return _Stack(_divided(raw, bound), raw.lower_bound / bound, raw.upper_bound / bound)

    @property
    def stacks(self) -> list:
        """The ONB, raw, Parseval, upper-bound-one and lower-bound-one stacks, in that order."""
        return [self.onb, self.raw, self.parseval, self.upper_one, self.lower_one]


class FrameEnsemble:
    """The seeded trial-frame family shared by every sampled certificate.

    Trial i (0 <= i < trials) is the orthonormal basis random_onb(dim, seed + i)
    and the raw frame random_frame(dim, dim + (i % dim) + 1, TRIAL_CONDITION,
    seed + i).  The ensemble holds only `dim`, `trials` and `seed`; iterating
    it yields the trials grouped by frame count, one TrialGroup at a time,
    each built when the walk reaches it, so a walk keeps no group it has
    moved past.  A campaign builds one ensemble and walks it once for every
    check it samples.  Results do not depend on evaluation order.
    """

    def __init__(self, dim: int, trials: int, seed: int):
        _check_count("dim", dim)
        _check_count("trials", trials)
        _check_seed(seed)
        self.dim, self.trials, self.seed = dim, trials, seed

    def __iter__(self):
        dim, trials, seed = self.dim, self.trials, self.seed
        for residue in range(min(dim, trials)):
            seeds = range(seed + residue, seed + trials, dim)
            yield TrialGroup(seeds, *_random_frames(dim, dim + residue + 1, TRIAL_CONDITION, seeds))


def _phase_fix(q: np.ndarray) -> np.ndarray:
    """Rotate each column so its first nonzero entry is real positive.

    Works on one matrix or a stack; all-zero columns are left unchanged.
    """
    nonzero = np.abs(q) > 1e-14
    first = np.argmax(nonzero, axis=-2)[..., None, :]
    pivot = np.take_along_axis(q, first, axis=-2)
    pivot = np.where(np.take_along_axis(nonzero, first, axis=-2), pivot, 1.0)
    return q * (np.conj(pivot) / np.abs(pivot))


def _onb_stack(dim: int, seeds) -> np.ndarray:
    """ONB vectors for each seed, shape (len(seeds), dim, dim), from one stacked QR."""
    z = np.empty((len(seeds), dim, dim), dtype=np.complex128)
    for k, seed in enumerate(seeds):
        z[k] = _gaussian(np.random.default_rng(seed), (dim, dim))
    q, _ = np.linalg.qr(z)
    return _phase_fix(q)


def random_onb(dim: int, seed: int) -> Frame:
    """Seeded random orthonormal basis of C^dim as a Frame.

    Orthonormalizes a complex Gaussian matrix; a fixed phase convention
    (first nonzero entry of each column real positive) makes the output
    reproducible across platforms.
    """
    _check_count("dim", dim)
    _check_seed(seed)
    return make_frame(_onb_stack(dim, [seed])[0])


def _random_frames(dim: int, count: int, condition_target: float, seeds) -> tuple:
    """The _Stack of the frames random_frame(dim, count, condition_target, seed) for each
    seed, and the eigh (w, v) of their frame operators that their bounds come from.

    Draws each seed's blocks and perturbation and orthonormalizes all blocks
    in one stacked QR, and decomposes the stack's frame operators once; then
    each frame that misses the target is blended on its own from the Parseval
    map of that decomposition, with the same attempts and spanning test as
    random_frame, and its (w, v) is that of its last blend.  At a target of 1
    the frames are the Parseval ones, decomposed afresh.
    """
    _check_count("dim", dim)
    _check_count("count", count)
    if count < dim:
        raise ValueError(f"count {count} must be >= dim {dim}")
    if not (_is_real(condition_target) and condition_target >= 1.0):
        raise ValueError(f"condition_target must be >= 1, got {condition_target}")
    n_bases = -(-count // dim)
    block_seeds = np.empty((len(seeds), n_bases), dtype=np.int64)
    g = np.empty((len(seeds), dim, count), dtype=np.complex128)
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        block_seeds[k] = rng.integers(0, 2**62, size=n_bases)
        g[k] = _gaussian(rng, (dim, count))
    blocks = _onb_stack(dim, block_seeds.ravel()).reshape(len(seeds), n_bases, dim, dim)
    base = blocks.transpose(0, 2, 1, 3).reshape(len(seeds), dim, n_bases * dim)[..., :count]
    raw = base + (0.25 / np.sqrt(dim)) * g
    (w, v), lower, upper = _spanning_bounds(raw, seeds)
    if condition_target == 1.0:
        raw = _parseval_vectors(raw, (w, v))
        (w, v), lower, upper = _spanning_bounds(raw, seeds)
    else:
        for k in np.flatnonzero(upper / lower > condition_target):
            parseval = _parseval_vectors(raw[k], (w[k], v[k]))
            for attempt in range(1, 51):
                t = 2.0**-attempt
                candidate = (1.0 - t) * parseval + t * raw[k]
                with np.errstate(divide="ignore", invalid="ignore"):
                    eigen, c1, c2 = _decomposed(candidate)
                    if _spanning(c1, c2) and c2 / c1 <= condition_target:
                        break
            else:
                raise ValueError(
                    f"could not reach condition target {condition_target} after 50 attempts"
                )
            raw[k], lower[k], upper[k], (w[k], v[k]) = candidate, c1, c2, eigen
    for arr in (raw, lower, upper):
        arr.flags.writeable = False
    return _Stack(raw, lower, upper), (w, v)


def random_frame(dim: int, count: int, condition_target: float, seed: int) -> Frame:
    """Seeded random frame with condition number C2/C1 <= condition_target.

    Blends an ONB multiset (enough seeded random orthonormal bases to supply
    `count` vectors) with a random perturbation, pulling the result toward its
    Parseval projection until the condition target is met.  A target of
    exactly 1 returns the Parseval projection itself.  This is the one-seed
    case of the batched generator that FrameEnsemble uses.
    """
    _check_seed(seed)
    (vectors,), (lower,), (upper,) = _random_frames(dim, count, condition_target, [seed])[0]
    return Frame(vectors, float(lower), float(upper))


def union_frame(a: Frame, b) -> Frame:
    """Concatenate two families; the frame operator is the sum of operators.

    `b` may be a Frame or a raw vector family (so zero vectors and other
    non-spanning families can be appended to an existing frame).
    """
    vb = _coerce_vectors(b)
    if vb.shape[0] != a.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {vb.shape[0]}")
    return make_frame(np.hstack([a.vectors, vb]))
