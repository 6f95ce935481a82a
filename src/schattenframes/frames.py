"""Finite frames and stacks of frames: frame operators, exact frame bounds,
the synthesis-operator certificate, canonical Parseval rescaling, seeded
generators for random orthonormal bases and random frames, and the seeded
trial-frame ensemble that the sampled certificates share.

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

import numpy as np

from .linalg import as_matrix

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

#: A family is accepted as a frame when lambda_min(S) > SPANNING_TOL * lambda_max(S).
SPANNING_TOL = 1e-10

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
        lower, upper = _bounds(vectors)
        _require_spanning(vectors.shape[-2], lower, upper, "frame {} of the stack".format)
        return _sealed(vectors, lower, upper)

    @classmethod
    def concat(cls, stacks) -> Frame:
        """Join stacks of one frame shape in order; bounds are carried over."""
        fields = ("vectors", "lower_bound", "upper_bound")
        return _sealed(*(np.concatenate([getattr(s, f) for s in stacks]) for f in fields))

    def __getitem__(self, k) -> Frame:
        """Member k of a stack, sharing the stack's arrays."""
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


def _coerce_vectors(vectors, dim: int | None) -> np.ndarray:
    """Stack input vectors as columns of a (dim, count) complex matrix."""
    if isinstance(vectors, Frame):
        vectors = _one_frame(vectors).vectors
    if not (isinstance(vectors, np.ndarray) and vectors.ndim == 2):
        cols = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in vectors]
        if not cols:
            raise ValueError("a frame needs at least one vector")
        lengths = {c.shape[0] for c in cols}
        if len(lengths) != 1:
            raise ValueError(f"vectors have inconsistent lengths {sorted(lengths)}")
        vectors = np.column_stack(cols)
    if dim is not None and vectors.shape[0] != dim:
        raise ValueError(f"vectors have length {vectors.shape[0]}, expected dim {dim}")
    return vectors


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


def make_frame(vectors, dim: int | None = None) -> Frame:
    """Build one Frame from a vector family: `Frame.of` behind input coercion.

    `vectors` may be a sequence of length-`dim` vectors or a (dim, count)
    array whose columns are the vectors.  Fails when the family does not span.
    """
    return Frame.of(as_matrix(_coerce_vectors(vectors, dim)))


@dataclass(frozen=True, eq=False)
class SynthesisCertificate:
    """Measured synthesis-operator properties with pass/fail verdict.

    Certifies C1 <= ||A||^2 <= C2, invertibility of S = A A* (C1 > 0), and on
    seeded unit probes f the analysis identity sum_n |<f, f_n>|^2 = <S f, f>
    (||A* f||^2 against Re <S f, f>) and the frame inequality.  `rank` is the
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
    tolerance: float
    passed: bool | np.ndarray
    failures: tuple


#: Seeded unit probes per frame on which certify_synthesis checks the analysis
#: identity and the frame inequality.
SYNTHESIS_PROBES = 200


def _probes(dim: int, n_probes: int, seed: int) -> np.ndarray:
    """Seeded unit probe vectors as the columns of a (dim, n_probes) matrix."""
    rng = np.random.default_rng(seed)
    probes = rng.standard_normal((dim, n_probes)) + 1j * rng.standard_normal((dim, n_probes))
    probes /= np.linalg.norm(probes, axis=0)
    return probes


def certify_synthesis(
    frame: Frame, tol: float = 1e-9, seed: "int | Sequence[int]" = 0
) -> SynthesisCertificate:
    """Certify the synthesis operator's norm bracket and analysis identity.

    The SVD of A and the frame operator S are taken once for the whole stack.
    For a stack of frames `seed` holds one probe seed per frame, and the
    certificate's fields are arrays over the stack; the frames that share a
    seed are evaluated together on that seed's probes, drawn once.
    """
    shape = frame.vectors.shape[:-2]
    if np.shape(seed) != shape:
        raise ValueError(f"frames of stack shape {shape} need one seed per frame, got {seed!r}")
    vectors = frame.vectors.reshape(-1, frame.dim, frame.count)
    c1, c2 = np.reshape(frame.lower_bound, -1), np.reshape(frame.upper_bound, -1)
    n, dim, count = vectors.shape
    seeds = np.reshape(seed, -1)
    # LAPACK SVD of A itself, independent of the frame operator the bounds came from
    svals = np.linalg.svd(vectors, compute_uv=False)
    op2 = svals[:, 0] ** 2
    rank = np.sum(svals > 1e-12 * svals[:, :1], axis=-1)
    s = _frame_operators(vectors)
    dev, lo, hi = (np.empty(n) for _ in range(3))
    for sd in dict.fromkeys(seeds.tolist()):
        part = np.flatnonzero(seeds == sd)
        f = _probes(dim, SYNTHESIS_PROBES, int(sd))
        # ||A* f||^2 by the matrix product against <S f, f> through the frame operator
        direct = np.linalg.norm(vectors[part].conj().swapaxes(-1, -2) @ f, axis=-2) ** 2
        analysis = np.real(np.sum(f.conj() * (s[part] @ f), axis=-2))
        dev[part] = np.max(np.abs(analysis - direct) / np.maximum(analysis, 1e-300), axis=-1)
        # frame inequality on the probes
        lo[part], hi[part] = np.min(analysis, axis=-1), np.max(analysis, axis=-1)
    scale = np.maximum(1.0, c2)
    checks = (
        ~((c1 - tol * scale <= op2) & (op2 <= c2 + tol * scale)),
        ~(c1 > 0),
        dev > 1e-10,
        (lo < c1 * (1 - 1e-10) - tol) | (hi > c2 * (1 + 1e-10) + tol),
    )
    failures = [()] * n
    for k in np.flatnonzero(np.any(checks, axis=0)):
        b1, b2 = float(c1[k]), float(c2[k])
        messages = (
            f"||A||^2 = {op2[k]:.6e} outside [{b1:.6e}, {b2:.6e}]",
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
    return SynthesisCertificate(
        dim=dim,
        count=count,
        tolerance=tol,
        failures=tuple(failures) if shape else failures[0],
        **{key: _per_frame(value.reshape(shape)) for key, value in fields.items()},
    )


def _frame_operators(vectors: np.ndarray) -> np.ndarray:
    """S = sum_n f_n f_n* (made exactly Hermitian) of a frame or of each frame in a stack."""
    s = vectors @ np.conj(vectors).swapaxes(-1, -2)
    return 0.5 * (s + np.conj(s).swapaxes(-1, -2))


def _bounds(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lambda_min(S) and lambda_max(S) of a frame or of each frame in a stack, from one eigh."""
    w = np.linalg.eigh(_frame_operators(vectors))[0]
    return w[..., 0].copy(), w[..., -1].copy()


def _parseval_vectors(vectors: np.ndarray) -> np.ndarray:
    """S^(-1/2) f_n for a frame or for each frame in a stack."""
    w, v = np.linalg.eigh(_frame_operators(vectors))
    # nonincreasing order, tie-breaking as argsort does
    order = np.argsort(w, axis=-1)[..., ::-1]
    w = np.take_along_axis(w, order, axis=-1)
    v = np.take_along_axis(v, order[..., None, :], axis=-1)
    inv_root = (v * (1.0 / np.sqrt(w))[..., None, :]) @ np.conj(v).swapaxes(-1, -2)
    return inv_root @ vectors


def canonical_parseval(frame: Frame) -> Frame:
    """Apply S^(-1/2) to every vector (of every frame); the result is Parseval."""
    return Frame.of(_parseval_vectors(frame.vectors))


def rescale_upper_bound_one(frame: Frame) -> Frame:
    """Divide all vectors by sqrt(C2), frame by frame; new bounds are (C1/C2, 1)."""
    return Frame.of(frame.vectors / np.sqrt(frame.upper_bound)[..., None, None])


def rescale_lower_bound_one(frame: Frame) -> Frame:
    """Divide all vectors by sqrt(C1), frame by frame; new bounds are (1, C2/C1)."""
    return Frame.of(frame.vectors / np.sqrt(frame.lower_bound)[..., None, None])


@dataclass(frozen=True)
class TrialGroup:
    """The trials of a FrameEnsemble that share one frame count.

    `indices` are the trial indices i (trial seed = ensemble seed + i);
    `onb` stacks their ONBs and `raw` their raw trial frames.
    """

    indices: range
    onb: Frame
    raw: Frame


class FrameEnsemble:
    """The seeded trial-frame family shared by every sampled certificate.

    Trial i (0 <= i < trials) is the orthonormal basis random_onb(dim, seed + i)
    and the raw frame random_frame(dim, dim + (i % dim) + 1, TRIAL_CONDITION,
    seed + i).  Trials are grouped by frame count into `groups`, each holding
    the read-only ONB and raw-frame stacks with their bounds; the Parseval
    and rescaled variants are derived from the stacks when a certificate
    asks.  Results do not depend on evaluation order.
    """

    def __init__(self, dim: int, trials: int, seed: int):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        self.dim, self.trials, self.seed = dim, trials, seed
        groups = []
        for residue in range(min(dim, trials)):
            indices = range(residue, trials, dim)
            seeds = [seed + i for i in indices]
            onb = Frame.of(_onb_stack(dim, seeds))
            raw = _random_frames(dim, dim + residue + 1, TRIAL_CONDITION, seeds)
            groups.append(TrialGroup(indices, onb, raw))
        self.groups: tuple[TrialGroup, ...] = tuple(groups)

    def regime_stacks(self, parseval: bool):
        """Yield the sampled stacks of one regime, group by group.

        Each group gives its ONBs, then its raw frames made Parseval
        (``parseval=True``, the inf regime) or rescaled to upper bound 1
        (the sup regime).
        """
        for group in self.groups:
            yield group.onb
            yield canonical_parseval(group.raw) if parseval else rescale_upper_bound_one(group.raw)


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
        rng = np.random.default_rng(seed)
        z[k] = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    return _phase_fix(q)


def random_onb(dim: int, seed: int) -> Frame:
    """Seeded random orthonormal basis of C^dim as a Frame.

    Orthonormalizes a complex Gaussian matrix; a fixed phase convention
    (first nonzero entry of each column real positive) makes the output
    reproducible across platforms.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return make_frame(_onb_stack(dim, [seed])[0])


def _random_frames(dim: int, count: int, condition_target: float, seeds) -> Frame:
    """The frames random_frame(dim, count, condition_target, seed) for each seed, stacked.

    Draws each seed's blocks and perturbation, orthonormalizes all blocks in
    one stacked QR and blends every frame that misses the target in batch,
    with the same attempts and spanning test as one frame at a time.
    """
    if count < dim:
        raise ValueError(f"count {count} must be >= dim {dim}")
    if condition_target < 1.0:
        raise ValueError(f"condition_target must be >= 1, got {condition_target}")
    n_bases = -(-count // dim)
    block_seeds = np.empty((len(seeds), n_bases), dtype=np.int64)
    g = np.empty((len(seeds), dim, count), dtype=np.complex128)
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        block_seeds[k] = rng.integers(0, 2**62, size=n_bases)
        g[k] = rng.standard_normal((dim, count)) + 1j * rng.standard_normal((dim, count))
    blocks = _onb_stack(dim, block_seeds.ravel()).reshape(len(seeds), n_bases, dim, dim)
    base = blocks.transpose(0, 2, 1, 3).reshape(len(seeds), dim, n_bases * dim)[..., :count]
    raw = base + (0.25 / np.sqrt(dim)) * g
    lower, upper = _bounds(raw)
    _require_spanning(dim, lower, upper, lambda k: f"seed {seeds[k]}")
    if condition_target == 1.0:
        return Frame.of(_parseval_vectors(raw))
    pending = np.flatnonzero(upper / lower > condition_target)
    if pending.size:
        parseval = _parseval_vectors(raw[pending])
        for attempt in range(1, 51):
            t = 2.0**-attempt
            candidate = (1.0 - t) * parseval + t * raw[pending]
            with np.errstate(divide="ignore", invalid="ignore"):
                c1, c2 = _bounds(candidate)
                met = _spanning(c1, c2) & (c2 / c1 <= condition_target)
            # a blended frame replaces its raw one; the frames still pending stay raw
            done = pending[met]
            raw[done], lower[done], upper[done] = candidate[met], c1[met], c2[met]
            pending, parseval = pending[~met], parseval[~met]
            if not pending.size:
                break
        else:
            raise ValueError(
                f"could not reach condition target {condition_target} after 50 attempts"
            )
    return _sealed(raw, lower, upper)


def random_frame(dim: int, count: int, condition_target: float, seed: int) -> Frame:
    """Seeded random frame with condition number C2/C1 <= condition_target.

    Blends an ONB multiset (enough seeded random orthonormal bases to supply
    `count` vectors) with a random perturbation, pulling the result toward its
    Parseval projection until the condition target is met.  A target of
    exactly 1 returns the Parseval projection itself.  This is the one-seed
    case of the batched generator that FrameEnsemble uses.
    """
    return _random_frames(dim, count, condition_target, [seed])[0]


def union_frame(a: Frame, b) -> Frame:
    """Concatenate two families; the frame operator is the sum of operators.

    `b` may be a Frame or a raw vector family (so zero vectors and other
    non-spanning families can be appended to an existing frame).
    """
    vb = _coerce_vectors(b, None)
    if vb.shape[0] != _one_frame(a).dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {vb.shape[0]}")
    return make_frame(np.hstack([a.vectors, vb]))
