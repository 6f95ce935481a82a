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
#: Report tag stem of the certificate of each plain sum
_TAGS = {"norms": "norm_sum", "diag": "diag_sum", "double": "double_sum"}

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


def _psd_eigenvalues(t: np.ndarray, what: str | None = None) -> np.ndarray | None:
    """Eigenvalues of t when it is Hermitian PSD; else None, or a ValueError naming `what`."""
    defect = hermitian_defect(t)
    w = np.linalg.eigvalsh(0.5 * (t + t.conj().T)) if defect <= 1e-10 else None
    if w is not None and w[0] >= -1e-10 * max(1.0, abs(w[-1])):
        return w
    if what is None:
        return None
    if w is None:
        raise ValueError(f"{what} requires a Hermitian matrix (defect {defect:.3e})")
    raise ValueError(f"{what} requires a PSD matrix (min eigenvalue {w[0]:.3e})")


# Sum kernels: frame vectors (dim, count) or a stack (n, dim, count), with T one
# operator or n stacked; one value per frame.  A sum is split into its
# p-independent terms and their p-th powers, so that a p-grid takes the terms
# once.  The public sums are the one-frame case.


def _diag_values(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The pairings <T f_n, f_n> down each frame."""
    return np.einsum("...in,...in->...n", v.conj(), t @ v)


def _real_psd_diag(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<T f_n, f_n> as nonnegative reals, asserting the imaginary defect."""
    vals = _diag_values(t, v)
    if np.any(np.abs(vals.imag) > 1e-10 * (1.0 + np.abs(vals))):
        raise ValueError("diagonal pairings of a Hermitian matrix must be real")
    return np.maximum(vals.real, 0.0)


def _terms(kind: str, t: np.ndarray, v: np.ndarray):
    """The p-independent terms of the sum of `kind`.

    ||T f_n||, |<T f_n, f_n>| or |<T f_n, f_k>| at [k, n] for the plain
    sums; the pair (||f_n||, plain terms) for the weighted ones, where
    weighted_diag takes <T f_n, f_n> real.
    """
    if kind == "weighted_diag":
        return np.linalg.norm(v, axis=-2), _real_psd_diag(t, v)
    if kind in WEIGHTED_KINDS:
        return np.linalg.norm(v, axis=-2), _terms(kind.removeprefix("weighted_"), t, v)
    if kind == "norms":
        return np.linalg.norm(t @ v, axis=-2)
    return np.abs(_diag_values(t, v) if kind == "diag" else np.conj(v).swapaxes(-1, -2) @ (t @ v))


def _power_sums(kind: str, terms, p: float) -> np.ndarray:
    """The sum of `kind` at p from its `_terms`; zero frame vectors add 0 to weighted sums."""
    if kind not in WEIGHTED_KINDS:
        return np.sum(terms**p, axis=(-2, -1) if kind == "double" else -1)
    lengths, plain = terms
    if kind == "weighted_diag":
        summands = lengths ** (2.0 * (1.0 - p)) * plain**p
    elif kind == "weighted_norms":
        summands = lengths ** (2.0 - p) * plain**p
    else:  # weighted_double: inner sums over k for each n
        summands = lengths ** (2.0 - p) * np.sum(plain**p, axis=-2)
    return np.sum(np.where(lengths > 0.0, summands, 0.0), axis=-1)


def _sums(kind: str, t: np.ndarray, v: np.ndarray, p: float) -> np.ndarray:
    """The sum of `kind` at p, one value per frame."""
    return _power_sums(kind, _terms(kind, t, v), p)


def _frame_sum(kind: str, t, frame: Frame, p: float) -> SumReport:
    t = as_matrix(t)
    _check_p(p)
    _check_dims(t, frame)
    return SumReport(kind=kind, p=p, value=float(_sums(kind, t, frame.vectors, p)))


def sum_norms(t, frame: Frame, p: float) -> SumReport:
    """sum_n ||T f_n||^p."""
    return _frame_sum("norms", t, frame, p)


def sum_diag(t, frame: Frame, p: float) -> SumReport:
    """sum_n |<T f_n, f_n>|^p for a general operator."""
    return _frame_sum("diag", t, frame, p)


def sum_double(t, frame: Frame, p: float) -> SumReport:
    """sum_n sum_k |<T f_n, f_k>|^p."""
    return _frame_sum("double", t, frame, p)


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
        _psd_eigenvalues(t, "weighted_diag")
    return SumReport(kind=kind, p=p, value=float(_sums(kind, t, frame.vectors, p)))


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
    lhs = _sums("double", t, frame.vectors, p)
    rhs = _sums("norms", t, frame.vectors, p)
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


def _exponents(p) -> tuple[list, bool]:
    """The exponents of `p`, one or a sequence, each checked; and whether p is a sequence."""
    ps = list(p) if np.ndim(p) == 1 else [p]
    for q in ps:
        _check_p(q)
    return ps, np.ndim(p) == 1


def _certify(kind, t, ps, many, inf, ensemble, spectrum, basis, tol):
    """The certificate reports of the sum of `kind` at each exponent ps[j].

    ps[j] is sampled over the stacks of its regime, Parseval when inf[j] and
    upper bound one otherwise, against ||T||_p^p = sum spectrum^p, with the
    sum at `basis` as the witness (None: no witness).  Each regime is walked
    once; the terms of a stack are taken once, only the power map and sum run
    per p, and each stack is dropped after use.
    """
    sampled = [[] for _ in ps]
    walks = [(kind, regime, ensemble.regime_stacks(regime)) for regime in dict.fromkeys(inf)]
    if kind == "diag" and any(inf):  # the inf regime also samples weighted sums, lower bound 1
        lower_one = (rescale_lower_bound_one(group.raw) for group in ensemble.groups)
        walks.append(("weighted_diag", True, lower_one))
    for walk_kind, regime, stacks in walks:
        chosen = [j for j, r in enumerate(inf) if r == regime]
        for stack in stacks:
            terms = _terms(walk_kind, t, stack.vectors)
            for j in chosen:
                sampled[j].append(_power_sums(walk_kind, terms, ps[j]))
    witness_terms = None if basis is None else _terms(kind, t, basis)
    n_terms = t.shape[1] ** (2 if kind == "double" else 1)
    reports = []
    for p, p_inf, sums in zip(ps, inf, sampled):
        sums, norm_value = np.concatenate(sums), float(np.sum(spectrum**p))
        extremal = np.min(sums) if p_inf else np.max(sums)
        slack = tol * max(1.0, norm_value)
        direction_ok = extremal >= norm_value - slack if p_inf else extremal <= norm_value + slack
        witness, witness_ok = None, False
        if basis is not None:
            witness = float(_power_sums(kind, witness_terms, p))
            budget = _witness_budget(p, n_terms, float(np.max(spectrum)))
            witness_ok = bool(abs(witness - norm_value) <= slack + budget)
        reports.append(
            CertificateReport(
                tag=_TAGS[kind] + ("_inf" if p_inf else "_sup"),
                p=p,
                trials=ensemble.trials,
                direction="inf_above" if p_inf else "sup_below",
                extremal_value=float(extremal),
                norm_value=norm_value,
                witness_value=witness,
                equality_witness=witness_ok,
                tolerance=tol,
                passed=bool(direction_ok) and (basis is None or witness_ok),
            )
        )
    return reports if many else reports[0]


def certify_norm_formula(
    t, p, trials: int = 200, seed: int = 0, tol: float = 1e-9, ensemble=None
) -> CertificateReport | list[CertificateReport]:
    """Certify the norm-sum formula for ||T||_p^p, T square.

    p >= 2 engages the sup regime over frames with upper bound <= 1, p < 2
    the inf regime over Parseval frames.  The samples are `trials` seeded
    ONBs and as many random frames (trial seeds seed + index), or those of
    `ensemble`; `tol` bounds the direction check and the equality witness.
    The right-singular-vector basis is the exact witness: there ||T e_n|| is
    the n-th singular value, so the sum equals ||T||_p^p in finite dimension.

    `p` may be a sequence: the result is then one report per exponent,
    report j equal to the call at p[j], and the SVD, each sampled stack and
    its norms ||T f_n|| are taken once for the whole grid.
    """
    t = as_matrix(t)
    ps, many = _exponents(p)
    ensemble = _ensemble(t, trials, seed, ensemble)
    decomposition = svd(t)
    s, basis = decomposition.singular_values, decomposition.right_vectors
    return _certify("norms", t, ps, many, [q < 2 for q in ps], ensemble, s, basis, tol)


def certify_diag_formula(
    t,
    p,
    trials: int = 200,
    seed: int = 0,
    tol: float = 1e-9,
    direction: str | None = None,
    ensemble=None,
) -> CertificateReport | list[CertificateReport]:
    """Certify the diagonal-sum formula for a self-adjoint operator.

    The sup regime (p >= 1, any Hermitian T) samples sum_diag over frames
    with upper bound <= 1.  The inf regime (0 < p <= 1, T PSD) samples the
    plain diagonal sum over Parseval frames and the weighted variant over
    frames with lower bound >= 1, taking the smaller.  The eigenvector basis
    witnesses equality with sum |lambda_n|^p.  Non-Hermitian input is
    rejected: without self-adjointness the equality fails.  `p` may be a
    sequence, as in `certify_norm_formula`; without a `direction` each
    exponent takes its own regime.
    """
    t = as_matrix(t)
    ps, many = _exponents(p)
    defect = hermitian_defect(t)
    if defect > 1e-10:
        raise ValueError(
            f"diagonal-sum certificates need a Hermitian operator (defect {defect:.3e})"
        )
    if direction not in (None, "sup_below", "inf_above"):
        raise ValueError(f"direction must be None, 'sup_below' or 'inf_above', got {direction!r}")
    if direction is None:
        psd = any(q <= 1 for q in ps) and _psd_eigenvalues(t) is not None
        inf = [q <= 1 and psd for q in ps]
    else:
        inf = [direction == "inf_above"] * len(ps)
    for q, q_inf in zip(ps, inf):
        if not q_inf and q < 1:
            raise ValueError(f"the sup-regime diagonal formula needs p >= 1, got p = {q}")
        if q_inf and q > 1:
            raise ValueError(f"the inf-regime diagonal formula needs 0 < p <= 1, got p = {q}")
    if any(inf):
        _psd_eigenvalues(t, "the inf-regime diagonal formula")
    ensemble = _ensemble(t, trials, seed, ensemble)
    eigvals, eigvecs = hermitian_eigen(0.5 * (t + t.conj().T))
    return _certify("diag", t, ps, many, inf, ensemble, np.abs(eigvals), eigvecs, tol)


def certify_double_formula(
    t, p, trials: int = 200, seed: int = 0, tol: float = 1e-9, ensemble=None
) -> CertificateReport | list[CertificateReport]:
    """Certify the double-sum formula.

    For p >= 2 (any T) the sampled double sums over frames with upper bound
    <= 1 must stay below ||T||_p^p; for 0 < p < 2 (Hermitian T) the sums
    over Parseval frames must stay above.  When T is Hermitian its
    eigenvector basis gives the exact witness sum |lambda_n|^p; for
    non-Hermitian T in the sup regime the extremal value is only recorded.
    `p` may be a sequence, as in `certify_norm_formula`.
    """
    t = as_matrix(t)
    ps, many = _exponents(p)
    hermitian = hermitian_defect(t) <= 1e-10
    inf = [q < 2 for q in ps]
    if not hermitian and any(inf):
        raise ValueError(
            "the inf-regime double-sum formula needs a Hermitian operator,"
            f" got p = {ps[inf.index(True)]}"
        )
    ensemble = _ensemble(t, trials, seed, ensemble)
    basis = hermitian_eigen(0.5 * (t + t.conj().T))[1] if hermitian else None
    return _certify("double", t, ps, many, inf, ensemble, svd(t).singular_values, basis, tol)


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
        norm_total = _sums("norms", t, raw.vectors, 2)
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
