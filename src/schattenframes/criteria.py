"""Frame-sum functionals and sup/inf certificates for the Schatten norm.

The six sums characterize membership of an operator T in the Schatten class
S_p through a frame {f_n}:

* ``sum_norms``        sum_n ||T f_n||^p
* ``sum_diag``         sum_n |<T f_n, f_n>|^p
* ``sum_double``       sum_n sum_k |<T f_n, f_k>|^p
* ``weighted_norms``   sum_n ||f_n||^(2-p) ||T f_n||^p
* ``weighted_diag``    sum_n ||f_n||^(2(1-p)) <T f_n, f_n>^p   (T PSD)
* ``weighted_double``  sum_n ||f_n||^(2-p) sum_k |<T f_n, f_k>|^p

For p >= 2 the norm sums over frames with upper bound <= 1 stay below
||T||_p^p and the supremum attains it; for p <= 2 the sums over Parseval
frames stay above and the infimum attains it.  The extremum is attained at
the singular-vector (or eigenvector) basis, which the certificates evaluate
as an exact witness alongside a seeded sampling ensemble: the FrameEnsemble
passed as `ensemble` (a campaign builds one and shares it), or else a fresh
FrameEnsemble(dim, trials, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import Frame, FrameEnsemble, _one_frame, _per_frame, rescale_lower_bound_one
from .linalg import _check_p, as_matrix, hermitian_defect, hermitian_eigen, schatten_norm, svd

__all__ = [
    "SumReport",
    "CertificateReport",
    "DoubleSumComparison",
    "EndpointReport",
    "sum_norms",
    "sum_diag",
    "sum_double",
    "weighted_sum",
    "double_sum_comparison",
    "certify_norm_formula",
    "certify_diag_formula",
    "certify_double_formula",
    "endpoint_suites",
]

WEIGHTED_KINDS = ("weighted_norms", "weighted_diag", "weighted_double")
SUM_KINDS = ("norms", "diag", "double") + WEIGHTED_KINDS

#: p-range per weighted kind; rejections quote these.
_WEIGHTED_RANGE = {
    "weighted_norms": (0.0, 2.0),
    "weighted_diag": (0.0, 1.0),
    "weighted_double": (0.0, 2.0),
}


@dataclass(frozen=True)
class SumReport:
    """Value of one frame-sum functional with its parameters."""

    kind: str
    p: float
    value: float


@dataclass(frozen=True)
class CertificateReport:
    """Sampled extremal value of a frame-sum against the exact norm.

    ``direction`` is ``sup_below`` (every sampled sum must stay below
    ``norm_value`` + tolerance) or ``inf_above`` (stay above - tolerance).
    ``witness_value`` is the sum at the analytically extremal basis, which
    must equal ``norm_value`` for ``equality_witness`` to hold.
    """

    tag: str
    p: float
    trials: int
    direction: str
    extremal_value: float
    norm_value: float
    witness_value: float | None
    equality_witness: bool
    tolerance: float
    passed: bool


def _check_dims(t: np.ndarray, frame: Frame) -> None:
    if t.shape[-1] != _one_frame(frame).dim:
        raise ValueError(f"operator acts on C^{t.shape[-1]}, frame lives in C^{frame.dim}")


def _psd_or_raise(t: np.ndarray, what: str) -> np.ndarray:
    """Eigenvalues of t, rejecting non-Hermitian or indefinite input."""
    defect = hermitian_defect(t)
    if defect > 1e-10:
        raise ValueError(f"{what} requires a Hermitian matrix (defect {defect:.3e})")
    w = np.linalg.eigvalsh(0.5 * (t + t.conj().T))
    if w[0] < -1e-10 * max(1.0, abs(w[-1])):
        raise ValueError(f"{what} requires a PSD matrix (min eigenvalue {w[0]:.3e})")
    return w


# Sum kernels: frame vectors (dim, count) or a stack (n, dim, count), with T one
# operator or n stacked; one value per frame.  The public sums are the one-frame case.


def _norm_sums(t: np.ndarray, v: np.ndarray, p: float) -> np.ndarray:
    """sum_n ||T f_n||^p."""
    return np.sum(np.linalg.norm(t @ v, axis=-2) ** p, axis=-1)


def _diag_values(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The pairings <T f_n, f_n> down each frame."""
    return np.einsum("...in,...in->...n", v.conj(), t @ v)


def _diag_sums(t: np.ndarray, v: np.ndarray, p: float) -> np.ndarray:
    """sum_n |<T f_n, f_n>|^p."""
    return np.sum(np.abs(_diag_values(t, v)) ** p, axis=-1)


def _cross(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The pairings [k, n] = <T f_n, f_k>."""
    return np.conj(v).swapaxes(-1, -2) @ (t @ v)


def _double_sums(t: np.ndarray, v: np.ndarray, p: float) -> np.ndarray:
    """sum_n sum_k |<T f_n, f_k>|^p."""
    return np.sum(np.abs(_cross(t, v)) ** p, axis=(-2, -1))


def _real_psd_diag(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<T f_n, f_n> as nonnegative reals, asserting the imaginary defect."""
    vals = _diag_values(t, v)
    if np.any(np.abs(vals.imag) > 1e-10 * (1.0 + np.abs(vals))):
        raise ValueError("diagonal pairings of a Hermitian matrix must be real")
    return np.maximum(vals.real, 0.0)


def _weighted_sums(kind: str, t: np.ndarray, v: np.ndarray, p: float) -> np.ndarray:
    """Vector-norm-weighted sums; zero frame vectors contribute 0."""
    lengths = np.linalg.norm(v, axis=-2)
    if kind == "weighted_diag":
        terms = lengths ** (2.0 * (1.0 - p)) * _real_psd_diag(t, v) ** p
    elif kind == "weighted_norms":
        terms = lengths ** (2.0 - p) * np.linalg.norm(t @ v, axis=-2) ** p
    else:  # weighted_double: inner sums over k for each n
        terms = lengths ** (2.0 - p) * np.sum(np.abs(_cross(t, v)) ** p, axis=-2)
    return np.sum(np.where(lengths > 0.0, terms, 0.0), axis=-1)


def _frame_sum(kind: str, t, frame: Frame, p: float, kernel) -> SumReport:
    t = as_matrix(t)
    _check_p(p)
    _check_dims(t, frame)
    return SumReport(kind=kind, p=p, value=float(kernel(t, frame.vectors, p)))


def sum_norms(t, frame: Frame, p: float) -> SumReport:
    """sum_n ||T f_n||^p."""
    return _frame_sum("norms", t, frame, p, _norm_sums)


def sum_diag(t, frame: Frame, p: float) -> SumReport:
    """sum_n |<T f_n, f_n>|^p for a general operator."""
    return _frame_sum("diag", t, frame, p, _diag_sums)


def sum_double(t, frame: Frame, p: float) -> SumReport:
    """sum_n sum_k |<T f_n, f_k>|^p."""
    return _frame_sum("double", t, frame, p, _double_sums)


def weighted_sum(kind: str, t, frame: Frame, p: float) -> SumReport:
    """Vector-norm-weighted variants of the three sums.

    Zero frame vectors contribute 0 by convention.  ``weighted_diag``
    requires T PSD; p must lie in the kind's valid range.
    """
    if kind not in WEIGHTED_KINDS:
        raise ValueError(f"unknown weighted kind {kind!r}, expected one of {WEIGHTED_KINDS}")
    t = as_matrix(t)
    _check_p(p)
    _check_dims(t, frame)
    lo, hi = _WEIGHTED_RANGE[kind]
    if not (lo < p <= hi):
        raise ValueError(f"{kind} is defined for {lo} < p <= {hi}, got p = {p}")
    if kind == "weighted_diag":
        _psd_or_raise(t, "weighted_diag")
    return SumReport(kind=kind, p=p, value=float(_weighted_sums(kind, t, frame.vectors, p)))


@dataclass(frozen=True, eq=False)
class DoubleSumComparison:
    """Double sum against the norm sum with explicit frame-bound constants.

    For p >= 2 the double sum is at most C2^(p/2) times the norm sum; for
    p <= 2 it is at least C1^(p/2) times the norm sum; at p = 2 both hold
    (with equality for Parseval frames).  The constants attach to the
    mathematically forced bound (upper frame bound above, lower below).
    """

    p: float
    double_sum: float
    norm_sum: float
    upper_constant: float | None
    lower_constant: float | None
    tolerance: float
    passed: bool


def double_sum_comparison(t, frame: Frame, p: float, tol: float = 1e-9) -> DoubleSumComparison:
    """Check the two-sided comparison between double and norm sums.

    `t` is one (dim, dim) operator, or for a stack of n frames also a stack
    of one operator per frame, (n, dim, dim); for a stack the sums,
    constants and verdicts are arrays over it.
    """
    t = np.ascontiguousarray(t, dtype=np.complex128)
    square = (frame.dim, frame.dim)
    if t.shape not in (square, frame.vectors.shape[:-2] + square) or not np.isfinite(t).all():
        raise ValueError(
            f"expected a finite operator of shape {square}, or one per frame of the stack,"
            f" for frames of shape {frame.vectors.shape}; got shape {t.shape}"
        )
    _check_p(p)
    lhs = _double_sums(t, frame.vectors, p)
    rhs = _norm_sums(t, frame.vectors, p)
    scale = np.maximum(1.0, np.maximum(lhs, rhs))
    ok = np.ones(np.shape(lhs), dtype=bool)
    upper = lower = None
    # np.power, not float **, so that one frame gets the bits of a stack member
    if p >= 2:
        upper = _per_frame(np.power(frame.upper_bound, p / 2.0))
        ok &= lhs <= upper * rhs + tol * scale
    if p <= 2:
        lower = _per_frame(np.power(frame.lower_bound, p / 2.0))
        ok &= lhs >= lower * rhs - tol * scale
    return DoubleSumComparison(
        p=p,
        double_sum=_per_frame(lhs),
        norm_sum=_per_frame(rhs),
        upper_constant=upper,
        lower_constant=lower,
        tolerance=tol,
        passed=_per_frame(ok),
    )


def _witness_budget(p: float, n_terms: int, term_scale: float) -> float:
    """Rounding allowance for a sum of n p-th powers of computed pairings.

    Each pairing carries absolute rounding error ~ delta = O(eps * scale).
    For p < 1 the power map amplifies a zero-crossing error to delta^p,
    which dominates witness sums whose off-diagonal terms vanish exactly in
    the algebra.
    """
    delta = 64.0 * np.finfo(float).eps * max(term_scale, 1e-300)
    if p <= 1.0:
        per_term = delta**p
    else:
        per_term = p * (term_scale + delta) ** (p - 1.0) * delta
    return n_terms * per_term


def _ensemble(t: np.ndarray, trials: int, seed: int, ensemble: FrameEnsemble | None):
    """The campaign's ensemble, or a fresh one for a stand-alone call."""
    if ensemble is None:
        return FrameEnsemble(t.shape[1], trials, seed)
    if ensemble.dim != t.shape[1]:
        raise ValueError(f"operator acts on C^{t.shape[1]}, ensemble lives in C^{ensemble.dim}")
    return ensemble


def _certificate(
    tag: str,
    p: float,
    ensemble: FrameEnsemble,
    direction: str,
    sampled: list[np.ndarray],
    norm_value: float,
    witness_value: float | None,
    tol: float,
    witness_budget: float = 0.0,
) -> CertificateReport:
    sampled = np.concatenate(sampled)
    scale = max(1.0, norm_value)
    if direction == "sup_below":
        extremal = np.max(sampled)
        direction_ok = extremal <= norm_value + tol * scale
    else:
        extremal = np.min(sampled)
        direction_ok = extremal >= norm_value - tol * scale
    witness_ok = (
        witness_value is not None
        and abs(witness_value - norm_value) <= tol * scale + witness_budget
    )
    return CertificateReport(
        tag=tag,
        p=p,
        trials=ensemble.trials,
        direction=direction,
        extremal_value=float(extremal),
        norm_value=float(norm_value),
        witness_value=witness_value,
        equality_witness=witness_ok,
        tolerance=tol,
        passed=bool(direction_ok) and (witness_value is None or witness_ok),
    )


def certify_norm_formula(
    t, p: float, trials: int = 200, seed: int = 0, tol: float = 1e-9, ensemble=None
) -> CertificateReport:
    """Certify the norm-sum formula for ||T||_p^p.

    Parameters
    ----------
    t : array_like
        The operator under test (square).
    p : float
        Schatten exponent; p >= 2 engages the sup regime over frames with
        upper bound <= 1, p < 2 the inf regime over Parseval frames.
    trials : int
        Number of sampled ONBs (an equal number of random frames is added).
    seed : int
        Base seed; trial seeds are seed + index.
    tol : float
        Tolerance for the direction check and the equality witness.
    ensemble : FrameEnsemble, optional
        Sampled instead of a fresh FrameEnsemble(dim, trials, seed).

    The right-singular-vector basis is evaluated as the exact witness:
    there ||T e_n|| equals the n-th singular value, so the sum equals
    ||T||_p^p in finite dimension.
    """
    t = as_matrix(t)
    _check_p(p)
    ensemble = _ensemble(t, trials, seed, ensemble)
    sup_regime = p >= 2
    sampled = [_norm_sums(t, s.vectors, p) for s in ensemble.regime_stacks(not sup_regime)]
    decomposition = svd(t)
    norm_value = float(np.sum(decomposition.singular_values**p))
    witness = float(_norm_sums(t, decomposition.right_vectors, p))
    budget = _witness_budget(p, t.shape[1], float(decomposition.singular_values[0]))
    tag = "norm_sum_sup" if sup_regime else "norm_sum_inf"
    direction = "sup_below" if sup_regime else "inf_above"
    return _certificate(tag, p, ensemble, direction, sampled, norm_value, witness, tol, budget)


def certify_diag_formula(
    t,
    p: float,
    trials: int = 200,
    seed: int = 0,
    tol: float = 1e-9,
    direction: str | None = None,
    ensemble=None,
) -> CertificateReport:
    """Certify the diagonal-sum formula for a self-adjoint operator.

    The sup regime (p >= 1, any Hermitian T) samples sum_diag over frames
    with upper bound <= 1.  The inf regime (0 < p <= 1, T PSD) samples the
    plain diagonal sum over Parseval frames and the weighted variant over
    frames with lower bound >= 1, taking the smaller.  The eigenvector basis
    witnesses equality with sum |lambda_n|^p.  Non-Hermitian input is
    rejected: without self-adjointness the equality fails.
    """
    t = as_matrix(t)
    _check_p(p)
    defect = hermitian_defect(t)
    if defect > 1e-10:
        raise ValueError(
            f"diagonal-sum certificates need a Hermitian operator (defect {defect:.3e})"
        )
    if direction is None:
        direction = "inf_above" if p <= 1 and _psd_eigenvalues(t) is not None else "sup_below"
    if direction not in ("sup_below", "inf_above"):
        raise ValueError(f"direction must be None, 'sup_below' or 'inf_above', got {direction!r}")
    if direction == "sup_below" and p < 1:
        raise ValueError("the sup-regime diagonal formula needs p >= 1")
    if direction == "inf_above":
        if p > 1:
            raise ValueError("the inf-regime diagonal formula needs 0 < p <= 1")
        _psd_or_raise(t, "the inf-regime diagonal formula")
    ensemble = _ensemble(t, trials, seed, ensemble)
    eigvals, eigvecs = hermitian_eigen(0.5 * (t + t.conj().T))
    witness = float(_diag_sums(t, eigvecs, p))
    norm_value = float(np.sum(np.abs(eigvals) ** p))
    budget = _witness_budget(p, t.shape[1], float(np.max(np.abs(eigvals))))
    inf_regime = direction == "inf_above"
    sampled = [_diag_sums(t, s.vectors, p) for s in ensemble.regime_stacks(inf_regime)]
    if inf_regime:
        lower_one = (rescale_lower_bound_one(g.raw).vectors for g in ensemble.groups)
        sampled += [_weighted_sums("weighted_diag", t, v, p) for v in lower_one]
    tag = "diag_sum_inf" if inf_regime else "diag_sum_sup"
    return _certificate(tag, p, ensemble, direction, sampled, norm_value, witness, tol, budget)


def certify_double_formula(
    t, p: float, trials: int = 200, seed: int = 0, tol: float = 1e-9, ensemble=None
) -> CertificateReport:
    """Certify the double-sum formula.

    For p >= 2 (any T) the sampled double sums over frames with upper bound
    <= 1 must stay below ||T||_p^p; for 0 < p <= 2 (Hermitian T) the sums
    over Parseval frames must stay above.  When T is Hermitian its
    eigenvector basis gives the exact witness sum |lambda_n|^p; for
    non-Hermitian T in the sup regime the extremal value is only recorded.
    """
    t = as_matrix(t)
    _check_p(p)
    hermitian = hermitian_defect(t) <= 1e-10
    if p >= 2:
        direction, tag = "sup_below", "double_sum_sup"
    else:
        if not hermitian:
            raise ValueError("the inf-regime double-sum formula needs a Hermitian operator")
        direction, tag = "inf_above", "double_sum_inf"
    ensemble = _ensemble(t, trials, seed, ensemble)
    decomposition = svd(t)
    norm_value = float(np.sum(decomposition.singular_values**p))
    budget = _witness_budget(p, t.shape[1] ** 2, float(decomposition.singular_values[0]))
    witness = None
    if hermitian:
        _, eigvecs = hermitian_eigen(0.5 * (t + t.conj().T))
        witness = float(_double_sums(t, eigvecs, p))
    parseval = direction == "inf_above"
    sampled = [_double_sums(t, s.vectors, p) for s in ensemble.regime_stacks(parseval)]
    return _certificate(tag, p, ensemble, direction, sampled, norm_value, witness, tol, budget)


def _psd_eigenvalues(t: np.ndarray) -> np.ndarray | None:
    """Eigenvalues of t when it is Hermitian PSD, else None."""
    try:
        return _psd_or_raise(t, "")
    except ValueError:
        return None


@dataclass(frozen=True)
class EndpointReport:
    """Trace-class and Hilbert-Schmidt endpoint checks over sampled frames.

    The p = 1 suite (PSD T only) checks the enclosure
    C1 ||T||_1 <= sum <T f_n, f_n> <= C2 ||T||_1 per frame; the p = 2 suite
    checks sum ||T f_n||^2 = trace(T* T S) exactly, which places the sum in
    [C1, C2] * ||T||_2^2.
    """

    trials: int
    trace_checked: bool
    trace_margin: float
    hs_identity_dev: float
    hs_enclosure_margin: float
    passed: bool


def _enclosure(total, lo, hi, tol: float) -> tuple[float, bool]:
    """Smallest relative margin of `total` inside [lo, hi], and whether all fit."""
    scale = np.maximum(1.0, hi)
    margin = np.min(np.minimum(total - lo, hi - total) / scale)
    return float(margin), bool(np.all((total >= lo - tol * scale) & (total <= hi + tol * scale)))


def endpoint_suites(
    t, trials: int = 200, seed: int = 0, tol: float = 1e-9, ensemble=None
) -> EndpointReport:
    """Run the p = 1 and p = 2 endpoint suites over the ensemble's raw frames."""
    t = as_matrix(t)
    ensemble = _ensemble(t, trials, seed, ensemble)
    w = _psd_eigenvalues(t)
    psd = w is not None
    if psd:
        trace_norm_value = float(np.sum(np.maximum(w, 0.0)))
    hs_sq = schatten_norm(t, 2) ** 2
    gram = t.conj().T @ t
    trace_margin = hs_margin = np.inf
    hs_dev = 0.0
    ok = True
    for group in ensemble.groups:
        raw = group.raw
        c1, c2 = raw.lower_bound, raw.upper_bound
        if psd:
            diag_total = np.sum(_real_psd_diag(t, raw.vectors), axis=-1)
            margin, fits = _enclosure(diag_total, c1 * trace_norm_value, c2 * trace_norm_value, tol)
            trace_margin = min(trace_margin, margin)
            ok = ok and fits
        norm_total = _norm_sums(t, raw.vectors, 2)
        via_trace = np.real(np.trace(gram @ raw.frame_operator, axis1=-2, axis2=-1))
        dev = np.abs(norm_total - via_trace) / np.maximum(1.0, np.abs(via_trace))
        hs_dev = max(hs_dev, float(np.max(dev)))
        margin, fits = _enclosure(norm_total, c1 * hs_sq, c2 * hs_sq, tol)
        hs_margin = min(hs_margin, margin)
        ok = ok and fits and hs_dev <= 1e-10
    return EndpointReport(
        trials=ensemble.trials,
        trace_checked=psd,
        trace_margin=float(trace_margin) if psd else float("nan"),
        hs_identity_dev=float(hs_dev),
        hs_enclosure_margin=float(hs_margin),
        passed=ok,
    )
