"""Finite frames and stacks of frames: frame operators, exact frame bounds,
the synthesis-operator certificate, canonical Parseval rescaling, seeded
generators for random orthonormal bases and random frames, and the seeded
trial-frame ensemble that the sampled certificates share, which builds its
trial groups one at a time as a walk reaches them.

A family {f_n} in C^d is a frame when C1 ||f||^2 <= sum_n |<f, f_n>|^2 <=
C2 ||f||^2 for all f with C1 > 0; in finite dimension the optimal bounds are
the extreme eigenvalues of the frame operator S = sum_n f_n f_n*.  The
synthesis operator, sending the k-th coefficient basis vector to f_k, is the
(dim, count) matrix of the vectors themselves, so A A* = S.

One type, `Frame`, holds one frame or a stack of frames of one shape along a
leading axis; every operation here works frame by frame on either.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import CERTIFICATE_TOL, IDENTITY_TOL, RANK_TOL, SPANNING_TOL, _check_count, _check_seed
from .linalg import _BLOCK_ENTRIES, _gaussian, _verdict, as_matrix

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
    """An ordered frame, or a stack of frames, with its optimal bounds.

    `vectors` has shape (dim, count), column k being the k-th frame vector,
    or (n, dim, count) for a stack holding frame k in `vectors[k]`; `frame[k]`
    is that member as one frame.  Repeated vectors are allowed and meaningful
    (families keep multiplicity).  The bounds are floats for one frame and
    read-only length-n arrays for a stack.  Build frames with `Frame.of` or
    `make_frame`; their arrays are read-only.
    """

    vectors: np.ndarray
    lower_bound: float | np.ndarray
    upper_bound: float | np.ndarray

    @classmethod
    def of(cls, vectors) -> Frame:
        """The frame (dim, count) or stack (n, dim, count) of `vectors`.

        The bounds come from one eigh, batched over a stack.  Takes ownership
        of `vectors`, which is marked read-only.  Fails unless every family
        spans: lambda_min(S) must exceed SPANNING_TOL * lambda_max(S).
        """
        vectors = np.asarray(vectors, dtype=np.complex128)
        if vectors.ndim not in (2, 3) or 0 in vectors.shape[-2:] or not np.isfinite(vectors).all():
            raise ValueError(
                "expected finite vectors of shape (dim, count) or (n, dim, count),"
                f" got shape {vectors.shape}"
            )
        _, lower, upper = _decomposed(vectors)
        _require_spanning(vectors.shape[-2], lower, upper, "frame {} of the stack".format)
        return _sealed(vectors, lower, upper)

    def __getitem__(self, k) -> Frame:
        """Member k of a stack, sharing the stack's arrays."""
        if self.vectors.ndim != 3:
            raise ValueError(f"only a stack has members, got a frame of shape {self.vectors.shape}")
        return Frame(
            self.vectors[k], _per_frame(self.lower_bound[k]), _per_frame(self.upper_bound[k])
        )

    @property
    def dim(self) -> int:
        return self.vectors.shape[-2]

    @property
    def count(self) -> int:
        return self.vectors.shape[-1]

    @property
    def frame_operator(self) -> np.ndarray:
        """S = sum_n f_n f_n*, per frame for a stack; computed on read, read-only."""
        s = _frame_operators(self.vectors)
        s.flags.writeable = False
        return s

    @property
    def bounds(self) -> tuple:
        return (self.lower_bound, self.upper_bound)

    @property
    def condition(self) -> float | np.ndarray:
        return self.upper_bound / self.lower_bound


def _per_frame(values):
    """Per-frame results in the stack's shape; for one frame (0-d) a plain Python scalar."""
    return values.item() if np.ndim(values) == 0 else values


def _sealed(vectors: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> Frame:
    """The Frame of these arrays and their bounds, marked read-only."""
    for arr in (vectors, lower, upper):
        arr.flags.writeable = False
    return Frame(vectors, _per_frame(lower), _per_frame(upper))


def _one_frame(frame: Frame) -> Frame:
    """`frame` itself, for functions that take one frame and not a stack."""
    if frame.vectors.ndim != 2:
        raise ValueError(f"expected one frame, got a stack of shape {frame.vectors.shape}")
    return frame


def _coerce_vectors(vectors) -> np.ndarray:
    """Stack input vectors as columns of a (dim, count) complex matrix.

    An array must be that matrix already; any other shape, or an input that holds no
    vectors (a number, None), is rejected by name.
    """
    if isinstance(vectors, Frame):
        return _one_frame(vectors).vectors
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


def _require_spanning(dim: int, lower, upper, member) -> None:
    """Fail naming the first family that does not span; `member(k)` names frame k of a stack."""
    spans = _spanning(lower, upper)
    if not spans.all():
        k = np.unravel_index(np.argmin(spans), spans.shape)  # () for one frame
        raise ValueError(
            f"family does not span C^{dim}" + (f" ({member(k[0])})" if k else "")
            + f": lambda_min(S) = {lower[k]:.3e} <= tol {SPANNING_TOL * max(upper[k], 1e-300):.3e}"
        )


def make_frame(vectors) -> Frame:
    """Build one Frame from a vector family: `Frame.of` behind input coercion.

    `vectors` may be a sequence of vectors of one length or a (dim, count)
    array whose columns are the vectors.  Fails when the family does not span.
    """
    return Frame.of(as_matrix(_coerce_vectors(vectors)))


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
    For a stack of frames the bounds, measurements, `rank` and `passed` are
    arrays over the stack and `failures` holds one tuple of messages per frame.
    """

    dim: int
    count: int
    lower_bound: float | np.ndarray
    upper_bound: float | np.ndarray
    op_norm_sq: float | np.ndarray
    analysis_identity_dev: float | np.ndarray
    rank: int | np.ndarray
    passed: bool | np.ndarray
    failures: tuple


#: Seeded unit probes per frame on which certify_synthesis checks the analysis
#: identity and the frame inequality.
SYNTHESIS_PROBES = 200


def _probes(dim: int, seed: int) -> np.ndarray:
    """Seeded unit probe vectors as the columns of a (dim, SYNTHESIS_PROBES) matrix."""
    probes = _gaussian(np.random.default_rng(seed), (dim, SYNTHESIS_PROBES))
    return probes / np.linalg.norm(probes, axis=0)


def certify_synthesis(frame: Frame, seed: "int | Sequence[int]" = 0) -> SynthesisCertificate:
    """Certify the synthesis operator's norm bracket and analysis identity.

    The SVD of A and the frame operator S are taken once for the whole stack.
    For a stack of frames `seed` holds one probe seed per frame, member k
    being probed with seed[k], and the certificate's fields are arrays over
    the stack.
    """
    return _certify_synthesis([frame], seed)[0]


def _certify_synthesis(frames, seeds) -> list:
    """The certificates of frames in one C^dim, each one frame or a stack of one common shape.

    Member k of every frame is probed with seeds[k]; for one frame `seeds` is
    one int.  Trial by trial, the probes of seeds[k] are drawn once and
    applied to member k of each frame, one product S_k F per frame, and the
    identity's worst deviation and the probe sums' range are taken once over
    all of the trial's frames before its probes are dropped.  The frame
    operators and the SVD are taken once per stack.  The products A_k* F go
    over blocks of probes of at most _BLOCK_ENTRIES entries (but 8 probes at
    least): 16 probes at a time for the 399 vectors of a Bergman lattice
    frame, all 200 at once for at most 40 vectors.  Every block starts at a
    multiple of 8 probes and holds a multiple of 8, so the norms keep the
    one-shot product's bits: OpenBLAS's zgemm takes these columns in groups
    of 4 and rounds a column of a ragged group differently, so blocks of,
    say, 41 probes would not.  Measured on OpenBLAS's SkylakeX kernels only;
    other kernels may group columns otherwise (ROADMAP item 15).
    """
    shape = np.shape(seeds)
    for frame in frames:
        if frame.vectors.shape[:-2] != shape:
            raise ValueError(
                f"frames of stack shape {frame.vectors.shape[:-2]} need one seed per frame,"
                f" got {seeds!r}"
            )
    seeds = np.reshape(seeds, -1).tolist()
    for seed in seeds:
        _check_seed(seed)
    stacks = [frame.vectors.reshape(-1, frame.dim, frame.count) for frame in frames]
    operators = [_frame_operators(vectors) for vectors in stacks]
    dev, lo, hi = np.empty((3, len(frames), len(seeds)))  # at [frame, k], filled trial by trial
    direct, analysis = np.empty((2, len(frames), SYNTHESIS_PROBES))  # at [frame, probe]
    for k, seed in enumerate(seeds):
        f = _probes(frames[0].dim, seed)
        for i, (vectors, s) in enumerate(zip(stacks, operators)):
            # ||A* f||^2 by the matrix product against <S f, f> through the frame operator
            adjoint = vectors[k].conj().T
            width = max(8, _BLOCK_ENTRIES // vectors.shape[-1] // 8 * 8)
            for j in range(0, SYNTHESIS_PROBES, width):
                direct[i, j : j + width] = np.linalg.norm(adjoint @ f[:, j : j + width], axis=0) ** 2
            analysis[i] = np.real(np.sum(f.conj() * (s[k] @ f), axis=0))
        ratio = np.abs(analysis - direct) / np.maximum(analysis, 1e-300)
        # the identity's worst deviation and the probe sums' range for the frame inequality
        dev[:, k], lo[:, k], hi[:, k] = ratio.max(axis=1), analysis.min(axis=1), analysis.max(axis=1)
    certificates = []
    for frame, vectors, dev, lo, hi in zip(frames, stacks, dev, lo, hi):
        c1, c2 = np.reshape(frame.lower_bound, -1), np.reshape(frame.upper_bound, -1)
        # LAPACK SVD of A itself, independent of the frame operator the bounds came from;
        # lambda(S) runs from s_min(A)^2, 0 when fewer vectors than dim, to s_1(A)^2
        svals = np.linalg.svd(vectors, compute_uv=False)
        op2 = svals[:, 0] ** 2
        least2 = svals[:, -1] ** 2 if frame.count >= frame.dim else np.zeros(len(vectors))
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
        fields = {
            "lower_bound": c1,
            "upper_bound": c2,
            "op_norm_sq": op2,
            "analysis_identity_dev": dev,
            "rank": rank,
            "passed": ~np.any(checks, axis=0),
        }
        certificates.append(
            SynthesisCertificate(
                dim=frame.dim,
                count=frame.count,
                failures=tuple(failures) if shape else failures[0],
                **{key: _per_frame(value.reshape(shape)) for key, value in fields.items()},
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
    """Apply S^(-1/2) to every vector (of every frame); the result is Parseval."""
    return Frame.of(_parseval_vectors(frame.vectors))


def _divided(frame: Frame, bound) -> np.ndarray:
    """The vectors of `frame` divided by sqrt(bound), frame by frame."""
    return frame.vectors / np.sqrt(bound)[..., None, None]


def rescale_upper_bound_one(frame: Frame) -> Frame:
    """Divide all vectors by sqrt(C2), frame by frame; new bounds are (C1/C2, 1)."""
    return Frame.of(_divided(frame, frame.upper_bound))


def rescale_lower_bound_one(frame: Frame) -> Frame:
    """Divide all vectors by sqrt(C1), frame by frame; new bounds are (1, C2/C1)."""
    return Frame.of(_divided(frame, frame.lower_bound))


class TrialGroup:
    """The trials of a FrameEnsemble that share one frame count.

    `seeds` are their trial seeds (ensemble seed + i for trial i), `raw`
    stacks their raw trial frames and `eigen` is the eigh (w, v) of each raw
    frame's operator S, the one its bounds came from.  The other stacks are
    made on first read and kept with the group: `onb` is the ONB vectors, and
    `parseval`, `upper_one` and `lower_one` are the raw frames made Parseval
    (the inf regime) and rescaled to upper bound 1 (the sup regime) and to
    lower bound 1.  `parseval` applies S^(-1/2) from `eigen`, so a group
    takes one eigh per raw frame (with `eigen` None, it decomposes S itself).
    They are bare (n, dim, count) arrays without bounds, as the sums read
    nothing else; a reader that needs a Frame gives each stack the bounds its
    derivation claims, (1, 1) for `onb` and `parseval`, (C1/C2, 1) for
    `upper_one` and (1, C2/C1) for `lower_one`, with C1 and C2 the raw bounds.
    """

    def __init__(self, seeds: range, raw: Frame, eigen: tuple | None):
        self.seeds, self.raw, self.eigen = seeds, raw, eigen

    onb = cached_property(lambda self: _onb_stack(self.raw.dim, self.seeds))
    parseval = cached_property(lambda self: _parseval_vectors(self.raw.vectors, self.eigen))
    upper_one = cached_property(lambda self: _divided(self.raw, self.raw.upper_bound))
    lower_one = cached_property(lambda self: _divided(self.raw, self.raw.lower_bound))


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
    """The frames random_frame(dim, count, condition_target, seed) for each seed, stacked,
    and the eigh (w, v) of their frame operators that their bounds come from.

    Draws each seed's blocks and perturbation and orthonormalizes all blocks
    in one stacked QR, and decomposes the stack's frame operators once; then
    each frame that misses the target is blended on its own from the Parseval
    map of that decomposition, with the same attempts and spanning test as
    random_frame, and its (w, v) is that of its last blend.  At a target of 1
    the frames are the Parseval ones and (w, v) is None: `_parseval_vectors`
    then decomposes afresh.
    """
    _check_count("dim", dim)
    _check_count("count", count)
    if count < dim:
        raise ValueError(f"count {count} must be >= dim {dim}")
    if not condition_target >= 1.0:
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
    (w, v), lower, upper = _decomposed(raw)
    _require_spanning(dim, lower, upper, lambda k: f"seed {seeds[k]}")
    if condition_target == 1.0:
        return Frame.of(_parseval_vectors(raw, (w, v))), None
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
    return _sealed(raw, lower, upper), (w, v)


def random_frame(dim: int, count: int, condition_target: float, seed: int) -> Frame:
    """Seeded random frame with condition number C2/C1 <= condition_target.

    Blends an ONB multiset (enough seeded random orthonormal bases to supply
    `count` vectors) with a random perturbation, pulling the result toward its
    Parseval projection until the condition target is met.  A target of
    exactly 1 returns the Parseval projection itself.  This is the one-seed
    case of the batched generator that FrameEnsemble uses.
    """
    _check_seed(seed)
    return _random_frames(dim, count, condition_target, [seed])[0][0]


def union_frame(a: Frame, b) -> Frame:
    """Concatenate two families; the frame operator is the sum of operators.

    `b` may be a Frame or a raw vector family (so zero vectors and other
    non-spanning families can be appended to an existing frame).
    """
    vb = _coerce_vectors(b)
    if vb.shape[0] != _one_frame(a).dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {vb.shape[0]}")
    return make_frame(np.hstack([a.vectors, vb]))
