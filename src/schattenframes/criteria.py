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
as an exact witness alongside the seeded sampling ensemble
FrameEnsemble(dim, trials, seed), whose trial groups are built as a walk
reaches them.  A campaign that shares one ensemble among its checks walks it
once with `_certify`, taking each TrialGroup's `_endpoint_sums` in the walk's
visit and judging them with `_endpoint_report`.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .frames import Frame, FrameEnsemble, _frame_operators, _sole, _Stack, _stack_of
from .linalg import CERTIFICATE_TOL, IDENTITY_TOL, _as_square, _check_p, _exponents, _is_hermitian
from .linalg import _is_psd, _power_sum, _psd_eigenvalues, _verdict, _witness_budget, as_matrix
from .linalg import hermitian_eigen, svd

__all__ = [
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
#: Report tag stem of the certificate of each plain sum
_TAGS = {"norms": "norm_sum", "diag": "diag_sum", "double": "double_sum"}

#: p-range per weighted kind; rejections quote these.
_WEIGHTED_RANGE = {
    "weighted_norms": (0.0, 2.0),
    "weighted_diag": (0.0, 1.0),
    "weighted_double": (0.0, 2.0),
}


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


def _checked(t, frame: Frame, p: float) -> np.ndarray:
    """`as_matrix(t)`, rejected unless it acts on the frame's C^dim and p is valid."""
    t = as_matrix(t)
    _check_p(p)
    if t.shape[-1] != frame.dim:
        raise ValueError(f"operator acts on C^{t.shape[-1]}, frame lives in C^{frame.dim}")
    return t


# Sum kernels: frame vectors (dim, count) or a stack (n, dim, count), with T one
# operator or n stacked; one value per frame.  A sum is split into its
# p-independent terms and their p-th powers, so that a p-grid takes the terms
# once.  The public sums are the one-frame case.


def _diag_values(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The pairings <T f_n, f_n> down each frame."""
    return np.einsum("...in,...in->...n", v.conj(), t @ v)


def _terms(kind: str, t: np.ndarray, v: np.ndarray):
    """The p-independent terms of the sum of `kind`.

    ||T f_n||, |<T f_n, f_n>| or |<T f_n, f_k>| at [k, n] for the plain
    sums; the pair (||f_n||, plain terms) for the weighted ones, where
    weighted_diag takes <T f_n, f_n> real.
    """
    if kind == "weighted_diag":
        return np.linalg.norm(v, axis=-2), np.maximum(_diag_values(t, v).real, 0.0)
    if kind in WEIGHTED_KINDS:
        return np.linalg.norm(v, axis=-2), _terms(kind.removeprefix("weighted_"), t, v)
    if kind == "norms":
        return np.linalg.norm(t @ v, axis=-2)
    return np.abs(_diag_values(t, v) if kind == "diag" else np.conj(v).swapaxes(-1, -2) @ (t @ v))


def _power_sums(kind: str, terms, p: float) -> np.ndarray:
    """The sum of `kind` at p from its `_terms`; zero frame vectors add 0 to weighted sums.

    weighted_double takes the inner sums over k for each n, then the weighted sum over n.
    """
    if kind not in WEIGHTED_KINDS:
        return _power_sum(terms, p, axis=(-2, -1) if kind == "double" else -1)
    lengths, plain = terms
    exponent = 2.0 * (1.0 - p) if kind == "weighted_diag" else 2.0 - p
    weights = np.where(lengths > 0.0, lengths**exponent, 0.0)
    return _power_sum(plain, p, axis=-2 if kind == "weighted_double" else (), weights=weights)


def _sums(kind: str, t: np.ndarray, v: np.ndarray, p: float) -> np.ndarray:
    """The sum of `kind` at p, one value per frame."""
    return _power_sums(kind, _terms(kind, t, v), p)


def _frame_sum(kind: str, t, frame: Frame, p: float) -> float:
    return float(_sums(kind, _checked(t, frame, p), frame.vectors, p))


def sum_norms(t, frame: Frame, p: float) -> float:
    """sum_n ||T f_n||^p."""
    return _frame_sum("norms", t, frame, p)


def sum_diag(t, frame: Frame, p: float) -> float:
    """sum_n |<T f_n, f_n>|^p for a general operator."""
    return _frame_sum("diag", t, frame, p)


def sum_double(t, frame: Frame, p: float) -> float:
    """sum_n sum_k |<T f_n, f_k>|^p."""
    return _frame_sum("double", t, frame, p)


def weighted_sum(kind: str, t, frame: Frame, p: float) -> float:
    """Vector-norm-weighted variants of the three sums.

    Zero frame vectors contribute 0 by convention.  ``weighted_diag``
    requires T PSD; p must lie in the kind's valid range.
    """
    if kind not in WEIGHTED_KINDS:
        raise ValueError(f"unknown weighted kind {kind!r}, expected one of {WEIGHTED_KINDS}")
    t = _checked(t, frame, p)
    lo, hi = _WEIGHTED_RANGE[kind]
    if not (lo < p <= hi):
        raise ValueError(f"{kind} is defined for {lo} < p <= {hi}, got p = {p}")
    if kind == "weighted_diag":
        _psd_eigenvalues(t, "weighted_diag")
    return float(_sums(kind, t, frame.vectors, p))


@dataclass(frozen=True, eq=False)
class DoubleSumComparison:
    """Double sum against the norm sum with explicit frame-bound constants.

    For p >= 2 the double sum is at most C2^(p/2) times the norm sum; for
    p <= 2 it is at least C1^(p/2) times the norm sum; at p = 2 both hold
    (with equality for Parseval frames).  The constants attach to the
    mathematically forced bound (upper frame bound above, lower below).
    Each side's margin is how far the double sum lies inside that one bound,
    relative to max(1, double sum), None where the side does not apply.
    """

    p: float
    double_sum: float
    norm_sum: float
    upper_constant: float | None
    lower_constant: float | None
    upper_margin: float | None
    lower_margin: float | None
    passed: bool


def double_sum_comparison(t, frame: Frame, p: float) -> DoubleSumComparison:
    """Check the two-sided comparison between double and norm sums of a square T.

    The verdict allows CERTIFICATE_TOL relative to the larger sum; each
    margin is `_verdict`'s margin of its one side.
    """
    t = _checked(_as_square(t), frame, p)
    return _sole(_comparisons(t, _stack_of(frame), [p])[0])


def _comparisons(ops: np.ndarray, stack: _Stack, ps) -> list:
    """The double-sum comparison of ops[k] over member k of the stack at each ps[j].

    `ops` is one (dim, dim) operator for every member or n of them stacked,
    (n, dim, dim); comparison j holds one entry per member in each field but
    `p`.  The pairings are taken once for the whole grid.
    """
    terms = {kind: _terms(kind, ops, stack.vectors) for kind in ("double", "norms")}
    comparisons = []
    for q in ps:
        lhs, rhs = (_power_sums(kind, kind_terms, q) for kind, kind_terms in terms.items())
        upper = np.power(stack.upper_bound, q / 2.0) if q >= 2 else None
        lower = np.power(stack.lower_bound, q / 2.0) if q <= 2 else None
        lo = -np.inf if lower is None else lower * rhs
        # C2^(p/2) times the norm sum may pass the double range; its +inf is the
        # correctly rounded bound, so the check holds as in exact arithmetic
        with np.errstate(over="ignore"):
            hi = np.inf if upper is None else upper * rhs
        ok = _verdict(lhs, lo, hi, CERTIFICATE_TOL, np.maximum(lhs, rhs))[1]
        # each side's margin, relative to max(1, double sum)
        above = _verdict(lhs, -np.inf, hi, CERTIFICATE_TOL, lhs)[0]
        below = _verdict(lhs, lo, np.inf, CERTIFICATE_TOL, lhs)[0]
        comparisons.append(
            DoubleSumComparison(
                p=q,
                double_sum=lhs,
                norm_sum=rhs,
                upper_constant=upper,
                lower_constant=lower,
                upper_margin=None if upper is None else above,
                lower_margin=None if lower is None else below,
                passed=ok,
            )
        )
    return comparisons


#: One certificate over a p-grid, checked but not yet sampled: the sum of `kind`
#: of T = `t` at each ps[j], in the inf regime where inf[j], against ||T||_p^p =
#: sum spectrum^p, with the sum at `basis` as the witness (None: no witness).
_Job = namedtuple("_Job", "kind t ps inf spectrum basis")


def _certify(ensemble: FrameEnsemble, jobs, visit=None) -> list:
    """The reports of each job, one list per job, from one walk of the ensemble.

    Each ps[j] of a job is sampled over the ONBs and the raw frames of its
    regime, made Parseval when inf[j] and rescaled to upper bound one
    otherwise.  A group's stacks are made once when a job first reads their
    vectors and dropped with their group when the walk moves on; a job
    takes the terms of a stack once, and only the power map and sum run per
    p.  `visit`, if given, is called with each TrialGroup after the jobs have
    read it.
    """
    extremes = [np.where(job.inf, np.inf, -np.inf) for job in jobs]
    for group in ensemble:
        for job, extreme in zip(jobs, extremes):
            onb_terms = _terms(job.kind, job.t, group.onb.vectors)
            for regime in dict.fromkeys(job.inf):
                derived = group.parseval if regime else group.upper_one
                derived_terms = _terms(job.kind, job.t, derived.vectors)
                walks = [(job.kind, onb_terms), (job.kind, derived_terms)]
                if regime and job.kind == "diag":  # the inf regime also samples weighted sums
                    weighted = _terms("weighted_diag", job.t, group.lower_one.vectors)
                    walks.append(("weighted_diag", weighted))
                fold, reduce = (np.minimum, np.min) if regime else (np.maximum, np.max)
                for j in np.flatnonzero(np.equal(job.inf, regime)):
                    for kind, terms in walks:
                        extreme[j] = fold(extreme[j], reduce(_power_sums(kind, terms, job.ps[j])))
        if visit is not None:
            visit(group)
    return [_reports(job, extreme, ensemble.trials) for job, extreme in zip(jobs, extremes)]


def _witness(job: _Job, p: float, norm_value: float, terms=None) -> tuple[float, bool]:
    """The sum of `job` at p over its witness basis, and whether it equals `norm_value`.

    `terms` are the basis's `_terms`, if already taken (a p-grid takes them
    once).  The pairings at the basis carry rounding, for which
    `_witness_budget` allows: a kernel vector gives ||T v|| ~ eps s_1, not 0.
    """
    if terms is None:
        terms = _terms(job.kind, job.t, job.basis)
    witness = float(_power_sums(job.kind, terms, p))
    n_terms = job.t.shape[1] ** (2 if job.kind == "double" else 1)
    budget = _witness_budget(p, n_terms, float(np.max(job.spectrum)))
    ok = _verdict(witness - norm_value, 0.0, 0.0, CERTIFICATE_TOL, norm_value, budget)[1]
    return witness, bool(ok)


def _reports(job: _Job, extremes: np.ndarray, trials: int) -> list:
    """The CertificateReport at each exponent of `job` from its sampled extremes."""
    witness_terms = None if job.basis is None else _terms(job.kind, job.t, job.basis)
    reports = []
    for p, p_inf, extremal in zip(job.ps, job.inf, extremes):
        norm_value = float(_power_sum(job.spectrum, p))
        lo, hi = (norm_value, np.inf) if p_inf else (-np.inf, norm_value)
        direction_ok = _verdict(extremal, lo, hi, CERTIFICATE_TOL, norm_value)[1]
        witness, witness_ok = None, False
        if job.basis is not None:
            witness, witness_ok = _witness(job, p, norm_value, witness_terms)
        reports.append(
            CertificateReport(
                tag=_TAGS[job.kind] + ("_inf" if p_inf else "_sup"),
                p=p,
                trials=trials,
                direction="inf_above" if p_inf else "sup_below",
                extremal_value=float(extremal),
                norm_value=norm_value,
                witness_value=witness,
                equality_witness=witness_ok,
                tolerance=CERTIFICATE_TOL,
                passed=bool(direction_ok) and (job.basis is None or witness_ok),
            )
        )
    return reports


def _certified(job: _Job, trials: int, seed: int) -> CertificateReport:
    """The report of a job at one p, sampled over FrameEnsemble(dim, trials, seed)."""
    return _certify(FrameEnsemble(job.t.shape[1], trials, seed), [job])[0][0]


def _norm_job(t, ps) -> _Job:
    """The norm-sum job of T: one SVD gives the spectrum and, as the witness
    basis, `right_basis`, which spans C^cols also when T is wide."""
    t = as_matrix(t)
    _exponents(ps)
    decomposition = svd(t)
    s, basis = decomposition.singular_values, decomposition.right_basis
    return _Job("norms", t, ps, [q < 2 for q in ps], s, basis)


def certify_norm_formula(t, p: float, trials: int = 200, seed: int = 0) -> CertificateReport:
    """Certify the norm-sum formula for ||T||_p^p.

    p >= 2 engages the sup regime over frames with upper bound <= 1, p < 2
    the inf regime over Parseval frames.  The samples are `trials` seeded
    ONBs and as many random frames (trial seeds seed + index); the direction
    check and the equality witness are judged at CERTIFICATE_TOL.  The
    right-singular-vector basis is the exact witness: there ||T e_n|| is the
    n-th singular value, so the sum equals ||T||_p^p in finite dimension.
    For a wide T the basis is completed by kernel vectors to span C^cols.
    """
    return _certified(_norm_job(t, [p]), trials, seed)


def _diag_job(t, ps, direction: str | None = None) -> _Job:
    t = as_matrix(t)
    _exponents(ps)
    eigvals, eigvecs = hermitian_eigen(t)
    if direction not in (None, "sup_below", "inf_above"):
        raise ValueError(f"direction must be None, 'sup_below' or 'inf_above', got {direction!r}")
    psd = _is_psd(eigvals)
    inf = [(q <= 1 and psd) if direction is None else direction == "inf_above" for q in ps]
    for q, q_inf in zip(ps, inf):
        if not q_inf and q < 1:
            raise ValueError(f"the sup-regime diagonal formula needs p >= 1, got p = {q}")
        if q_inf and q > 1:
            raise ValueError(f"the inf-regime diagonal formula needs 0 < p <= 1, got p = {q}")
    if any(inf):
        _is_psd(eigvals, "the inf-regime diagonal formula")
    return _Job("diag", t, ps, inf, np.abs(eigvals), eigvecs)


def certify_diag_formula(
    t, p: float, trials: int = 200, seed: int = 0, direction: str | None = None
) -> CertificateReport:
    """Certify the diagonal-sum formula for a self-adjoint operator.

    The sup regime (p >= 1, any Hermitian T) samples sum_diag over frames
    with upper bound <= 1.  The inf regime (0 < p <= 1, T PSD) samples the
    plain diagonal sum over Parseval frames and the weighted variant over
    frames with lower bound >= 1, taking the smaller.  The eigenvector basis
    witnesses equality with sum |lambda_n|^p.  Non-Hermitian input is
    rejected: without self-adjointness the equality fails.  Without a
    `direction` the regime follows p and T.
    """
    return _certified(_diag_job(t, [p], direction), trials, seed)


def _double_job(t, ps) -> _Job:
    t = as_matrix(t)
    _exponents(ps)
    hermitian = _is_hermitian(t)
    inf = [q < 2 for q in ps]
    if not hermitian and any(inf):
        raise ValueError(
            "the inf-regime double-sum formula needs a Hermitian operator,"
            f" got p = {ps[inf.index(True)]}"
        )
    basis = hermitian_eigen(t)[1] if hermitian else None
    return _Job("double", t, ps, inf, svd(t).singular_values, basis)


def certify_double_formula(t, p: float, trials: int = 200, seed: int = 0) -> CertificateReport:
    """Certify the double-sum formula.

    For p >= 2 (any T) the sampled double sums over frames with upper bound
    <= 1 must stay below ||T||_p^p; for 0 < p < 2 (Hermitian T) the sums
    over Parseval frames must stay above.  When T is Hermitian its
    eigenvector basis gives the exact witness sum |lambda_n|^p; for
    non-Hermitian T in the sup regime the extremal value is only recorded.
    """
    return _certified(_double_job(t, [p]), trials, seed)


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


def endpoint_suites(t, trials: int = 200, seed: int = 0) -> EndpointReport:
    """Run the p = 1 and p = 2 endpoint suites over the raw frames of
    FrameEnsemble(dim, trials, seed)."""
    t = _as_square(t)
    sums = [_endpoint_sums(t, group.raw) for group in FrameEnsemble(t.shape[1], trials, seed)]
    return _endpoint_report(t, sums, trials)


def _endpoint_sums(t: np.ndarray, raw: _Stack) -> np.ndarray:
    """The rows C1, C2, sum_n max(0, Re <T f_n, f_n>), sum_n ||T f_n||^2 and
    trace(T* T S) of a complex (dim, dim) T over a stack of raw frames."""
    diag = np.sum(np.maximum(_diag_values(t, raw.vectors).real, 0.0), axis=-1)
    s = _frame_operators(raw.vectors)
    via_trace = np.real(np.trace((t.conj().T @ t) @ s, axis1=-2, axis2=-1))
    norms = _sums("norms", t, raw.vectors, 2)
    return np.stack([raw.lower_bound, raw.upper_bound, diag, norms, via_trace])


def _endpoint_report(t: np.ndarray, sums, trials: int) -> EndpointReport:
    """The endpoint suites of T judged on the `_endpoint_sums` of every group."""
    c1, c2, diag, norm_total, via_trace = np.concatenate(sums, axis=1)
    w = _psd_eigenvalues(t)
    psd = w is not None
    trace_margin, ok = np.nan, True
    if psd:
        trace_norm = float(np.sum(np.maximum(w, 0.0)))
        hi = c2 * trace_norm
        margin, fits = _verdict(diag, c1 * trace_norm, hi, CERTIFICATE_TOL, hi)
        trace_margin, ok = float(np.min(margin)), bool(np.all(fits))
    hs_sq = float(_power_sum(svd(t).singular_values, 2.0))
    hs_dev = float(np.max(np.abs(norm_total - via_trace) / np.maximum(1.0, np.abs(via_trace))))
    margin, fits = _verdict(norm_total, c1 * hs_sq, c2 * hs_sq, CERTIFICATE_TOL, c2 * hs_sq)
    return EndpointReport(
        trials=trials,
        trace_checked=psd,
        trace_margin=trace_margin,
        hs_identity_dev=hs_dev,
        hs_enclosure_margin=float(np.min(margin)),
        passed=ok and bool(np.all(fits)) and hs_dev <= IDENTITY_TOL,
    )
