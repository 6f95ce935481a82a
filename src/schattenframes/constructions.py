"""Explicit operators and frames that separate the p >= 2 and p <= 2 regimes.

Infinite-dimensional divergence statements are replaced by growth-in-
truncation diagnostics: a positive series is classified from its partial
sums at a fixed grid of truncations (``GrowthSeries``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import Frame, make_frame
from .linalg import ELEMENTWISE_TOL, PAIRING_FLOOR, PAIRING_TOL, _as_square, _check_count
from .linalg import _check_p, _is_real, _power_sum, as_matrix, svd

__all__ = [
    "GrowthSeries",
    "ScaledCopiesFrame",
    "DoubleSumDemo",
    "DEFAULT_GRID",
    "growth_series",
    "log_weight_vector",
    "log_weight_norm_series",
    "divergence_demo_sum_norms",
    "scaled_copies_frame",
    "nonvanishing_direction",
    "diag_divergence_frame",
    "truncated_shift",
    "divergence_demo_double_sum",
]

#: Default truncation grid for growth diagnostics.
DEFAULT_GRID = (100, 1_000, 10_000, 100_000)

#: Verdict thresholds: a series is bounded-like when the last decade adds
#: less than STALL_FRACTION of the running sum, or when increments collapse
#: geometrically (successive ratios all <= GEOMETRIC_RATIO).
STALL_FRACTION = 0.01
GEOMETRIC_RATIO = 0.5


@dataclass(frozen=True, eq=False)
class GrowthSeries:
    """Partial sums of a nonnegative series at increasing truncations."""

    truncations: tuple[int, ...]
    partial_sums: np.ndarray
    verdict: str

    @property
    def increment_ratios(self) -> np.ndarray:
        """Ratios of successive partial-sum increments (length len-2)."""
        inc = np.diff(self.partial_sums)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(inc[:-1] > 0, inc[1:] / inc[:-1], 0.0)


def _trend(partial_sums: np.ndarray) -> str:
    s = np.asarray(partial_sums, dtype=float)
    if s.size < 2:
        raise ValueError("need at least two truncations for a growth verdict")
    if np.any(np.diff(s) < -ELEMENTWISE_TOL * max(1.0, float(s[-1]))):
        raise ValueError("partial sums of a nonnegative series must be nondecreasing")
    stalled = (s[-1] - s[-2]) <= STALL_FRACTION * s[-2]
    inc = np.diff(s)
    ratios = inc[1:] / np.where(inc[:-1] > 0, inc[:-1], np.inf)
    collapsing = ratios.size > 0 and bool(np.all(ratios <= GEOMETRIC_RATIO))
    return "bounded_trend" if stalled or collapsing else "divergent_trend"


def _check_grid(name: str, grid) -> tuple[int, ...]:
    """`grid` as a tuple of ints; rejects it unless strictly increasing positive integers."""
    truncs = tuple(grid)
    if (
        not truncs
        or any(isinstance(n, bool) or not isinstance(n, (int, np.integer)) for n in truncs)
        or truncs[0] < 1
        or any(a >= b for a, b in zip(truncs, truncs[1:]))
    ):
        raise ValueError(f"{name} must be strictly increasing positive integers, got {grid!r}")
    return tuple(int(n) for n in truncs)


def growth_series(terms: np.ndarray, truncations=DEFAULT_GRID) -> GrowthSeries:
    """Classify a nonnegative term sequence from its partial sums.

    `terms` must cover the largest truncation.
    """
    terms = np.asarray(terms, dtype=float)
    truncs = _check_grid("truncations", truncations)
    if terms.size < truncs[-1]:
        raise ValueError(f"need {truncs[-1]} terms, got {terms.size}")
    if not np.all(np.isfinite(terms)):
        k = np.argmin(np.isfinite(terms))
        raise ValueError(f"terms must be finite, got terms[{k}] = {terms[k]}")
    if np.any(terms < 0):
        raise ValueError("terms must be nonnegative")
    cumulative = np.cumsum(terms)
    partial = cumulative[np.asarray(truncs) - 1]
    return GrowthSeries(
        truncations=truncs, partial_sums=partial, verdict=_trend(partial)
    )


def log_weight_vector(d: int) -> np.ndarray:
    """Entries 1/(sqrt(n) log(n+1)), n = 1..d (natural log).

    The squared entries are summable, so the vectors have a finite norm
    limit, while the entries themselves fail to be p-summable for p < 2.
    """
    _check_count("d", d)
    n = np.arange(1, d + 1, dtype=float)
    return 1.0 / (np.sqrt(n) * np.log(n + 1.0))


def log_weight_norm_series(d_grid=DEFAULT_GRID) -> GrowthSeries:
    """Partial sums of 1/(n log^2(n+1)): the convergent control series."""
    truncs = _check_grid("d_grid", d_grid)
    return growth_series(log_weight_vector(truncs[-1]) ** 2, truncs)


def divergence_demo_sum_norms(p: float, d_grid=DEFAULT_GRID) -> GrowthSeries:
    """Norm sums of the log-weight rank-one operator over the standard basis.

    With h_d the truncated log-weight vector and T = h_d h_d*, the sum over
    the basis is ||h_d||^p * sum_{n<=d} (sqrt(n) log(n+1))^(-p), which grows
    without bound for every 0 < p < 2.  p >= 2 is rejected: there the series
    comparison degenerates (use `log_weight_norm_series` as the convergent
    p = 2 control).
    """
    _check_p(p)
    if not 0 < p < 2:
        raise ValueError(f"this divergence demo needs 0 < p < 2, got p = {p}")
    truncs = _check_grid("d_grid", d_grid)
    a = log_weight_vector(truncs[-1])
    norm_factor = np.cumsum(a**2) ** (p / 2.0)
    partial = np.cumsum(a**p) * norm_factor
    sums = partial[np.asarray(truncs) - 1]
    return GrowthSeries(truncations=truncs, partial_sums=sums, verdict=_trend(sums))


@dataclass(frozen=True, eq=False)
class ScaledCopiesFrame:
    """Frame of repeated scaled basis vectors taming a slow singular decay.

    For the target singular values values_n = n^(-1/p), p > 2 and
    epsilon > 0, the scales delta_n satisfy delta_n^(p-2) = values_n^epsilon
    and each scaled basis vector delta_n e_n is repeated
    counts_n = round(1/delta_n^2) times.  Then counts_n delta_n^2 stays in
    [1/2, 2] (so the family is a frame with bounds in that interval) and

        sum_n counts_n delta_n^p values_n^p
            = sum_n (counts_n delta_n^2) values_n^(p+epsilon),

    which converges, values_n^(p+epsilon) = n^(-1-epsilon/p), even though
    the p-th power series is the divergent harmonic series.
    """

    values: np.ndarray
    p: float
    epsilon: float
    scales: np.ndarray
    counts: np.ndarray
    frame: Frame

    def power_sum_identity(self) -> tuple[float, float]:
        """Both sides of the exact rebalancing identity, independently."""
        lhs = _power_sum(self.values, self.p, axis=(), weights=self.counts * self.scales**self.p)
        rhs = _power_sum(
            self.values, self.p + self.epsilon, axis=(), weights=self.counts * self.scales**2
        )
        return float(lhs), float(rhs)


def scaled_copies_frame(p: float, epsilon: float, n_terms: int) -> ScaledCopiesFrame:
    """Build the scaled-copies frame for the first `n_terms` values n^(-1/p).

    Fails naming p and epsilon when a scale delta_n is so small that
    1/delta_n^2 is not a finite float, or its copy count is past numpy's
    index range.
    """
    _check_p(p)
    if p <= 2:
        raise ValueError(f"scaled copies need p > 2 (the scale exponent degenerates), got {p}")
    if not (_is_real(epsilon) and 0 < epsilon < np.inf):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    _check_count("n_terms", n_terms)
    values = np.arange(1, n_terms + 1, dtype=float) ** (-1.0 / p)
    scales = values ** (epsilon / (p - 2.0))
    with np.errstate(divide="ignore", over="ignore"):
        inverse_squares = 1.0 / scales**2
    if not np.all(np.isfinite(inverse_squares)):
        raise ValueError(f"the scales delta_n underflow at p = {p}, epsilon = {epsilon}")
    # 1/delta_n^2 >= 1 rounds to counts_n >= 1 with counts_n delta_n^2 in [1/2, 3/2]
    counts = np.round(inverse_squares)
    if not counts.max() < np.iinfo(np.intp).max:
        raise ValueError(
            f"the copy count {counts.max():.3e} at p = {p}, epsilon = {epsilon}"
            f" exceeds the largest index {np.iinfo(np.intp).max}"
        )
    index = np.repeat(np.arange(n_terms), counts.astype(int))
    matrix = np.zeros((n_terms, index.size), dtype=np.complex128)
    matrix[index, np.arange(index.size)] = scales[index]
    frame = make_frame(matrix)
    return ScaledCopiesFrame(
        values=values,
        p=p,
        epsilon=epsilon,
        scales=scales,
        counts=counts,
        frame=frame,
    )


def nonvanishing_direction(t) -> np.ndarray:
    """A unit vector h with <T h, h> != 0 for a nonzero operator.

    Tries the top left-singular vector first (a vanishing pairing there is
    nongeneric), then deterministically scans standard basis vectors and
    their two-element mixtures (e_i +- e_j)/sqrt(2), (e_i +- i e_j)/sqrt(2),
    returning the candidate with the largest pairing.  These quadratic-form
    samples determine every matrix entry, so they cannot all vanish unless
    T = 0.
    """
    t = _as_square(t)
    d = t.shape[0]
    scale = float(np.abs(t).max())
    if scale == 0.0:
        raise ValueError("the zero operator has no nonvanishing direction")
    top = svd(t).left_vectors[:, 0]
    if abs(np.vdot(top, t @ top)) > PAIRING_TOL * scale:
        return top
    eye = np.eye(d, dtype=np.complex128)
    candidates = [eye[:, i] for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            for coef in (1.0, -1.0, 1j, -1j):
                candidates.append((eye[:, i] + coef * eye[:, j]) / np.sqrt(2.0))
    best = max(candidates, key=lambda h: abs(np.vdot(h, t @ h)))
    if abs(np.vdot(best, t @ best)) <= PAIRING_FLOOR * scale:
        raise ValueError("could not find a direction with a nonvanishing pairing")
    return best


def diag_divergence_frame(t, copies: int) -> Frame:
    """Standard basis plus log-weighted copies of a nonvanishing direction.

    The appended vectors are h / (sqrt(n) log(n+1)), n = 1..copies, whose
    diagonal pairings <T e'_n, e'_n> = <T h, h> / (n log^2(n+1)) fail to be
    p-summable for p < 1 as copies grows.  Bounds are (1, 1 + g) with g the
    partial sum of 1/(n log^2(n+1)) (for dim >= 2).
    """
    t = as_matrix(t)
    _check_count("copies", copies)
    h = nonvanishing_direction(t)
    d = t.shape[0]
    weights = log_weight_vector(copies)
    extra = h[:, None] * weights[None, :]
    return make_frame(np.hstack([np.eye(d, dtype=np.complex128), extra]))


def truncated_shift(d: int) -> np.ndarray:
    """Truncated unilateral shift: e_n -> e_{n+1}, e_d -> 0.

    Every diagonal pairing <T e_n, e_n> vanishes while d-1 singular values
    equal 1, so diagonal sums carry no norm information without a
    positivity assumption.
    """
    _check_count("d", d)
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    m = np.zeros((d, d), dtype=np.complex128)
    m[np.arange(1, d), np.arange(d - 1)] = 1.0
    return m


@dataclass(frozen=True, eq=False)
class DoubleSumDemo:
    """Operator with geometric singular values but heavy-tailed entries."""

    matrix: np.ndarray
    double_series: GrowthSeries
    norm_series: GrowthSeries


def _reflector_first_column(d: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Normalized log-weight vector h1, reflector direction v, and beta."""
    h1 = log_weight_vector(d)
    h1 = h1 / np.linalg.norm(h1)
    v = -h1.copy()
    v[0] += 1.0
    beta = 2.0 / float(np.dot(v, v))
    return h1, v, beta


def _double_sum_closed_form(d: int, p: float) -> float:
    """Entrywise p-sum of the demo operator at dimension d, in O(d).

    The reflector U = I - beta v v^T maps e_1 to h1; column sums of |U|^p
    reduce to the scalar profile of v, so the full double sum
    sum_k 2^(-kp) sum_n |U[n,k]|^p needs no d x d matrix.
    """
    h1, v, beta = _reflector_first_column(d)
    geometric = 2.0 ** (-p * np.arange(1, d + 1, dtype=float))
    column_sums = np.empty(d)
    column_sums[0] = float(_power_sum(np.abs(h1), p))
    if d > 1:
        vk = v[1:]
        v_psum = float(_power_sum(np.abs(v), p))
        column_sums[1:] = np.abs(beta * vk) ** p * (v_psum - np.abs(vk) ** p) + np.abs(
            1.0 - beta * vk**2
        ) ** p
    return float(np.sum(geometric * column_sums))


def divergence_demo_double_sum(d: int, p: float, d_grid=DEFAULT_GRID) -> DoubleSumDemo:
    """Operator T e_n-expansion demo: bounded norms, divergent double sums.

    T maps the reflected basis {h_n} (h_1 the normalized log-weight vector)
    to the standard basis with geometric weights 2^(-n): its singular values
    are exactly 2^(-n), so partial sums of ||T||_p^p stay bounded, while the
    entrywise double sums over the standard basis inherit the log-weight
    tail of h_1 and diverge for 0 < p < 2.

    Returns the explicit matrix at dimension `d` together with the two growth
    series over `d_grid` (each grid point rebuilds the construction at that
    dimension; the closed-form column sums avoid materializing the matrix).
    """
    _check_p(p)
    if not 0 < p < 2:
        raise ValueError(f"this divergence demo needs 0 < p < 2, got p = {p}")
    _check_count("d", d)
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if d > 4096:
        raise ValueError("explicit matrix capped at d = 4096; use the growth series")
    h1, v, beta = _reflector_first_column(d)
    reflector = np.eye(d) - beta * np.outer(v, v)
    weights = 2.0 ** (-np.arange(1, d + 1, dtype=float))
    matrix = (weights[:, None] * reflector).astype(np.complex128)
    truncs = _check_grid("d_grid", d_grid)
    double_sums = np.array([_double_sum_closed_form(g, p) for g in truncs])
    double_series = GrowthSeries(
        truncations=truncs, partial_sums=double_sums, verdict=_trend(double_sums)
    )
    norm_terms = 2.0 ** (-p * np.arange(1, truncs[-1] + 1, dtype=float))
    norm_series = growth_series(norm_terms, truncs)
    return DoubleSumDemo(
        matrix=matrix,
        double_series=double_series,
        norm_series=norm_series,
    )
