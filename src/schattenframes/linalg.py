"""Dense complex linear algebra: Hermitian eigensystems, singular value
decompositions, Schatten p-norms and powers of positive matrices, and the
seeded complex Gaussian draw that every random input of the package uses.

The SVD is one LAPACK gesdd call (`numpy.linalg.svd`), which is backward
stable: every singular value is accurate to a modest multiple of eps * s_1,
however small it is.  Values at or below the noise floor
max(rows, cols) * eps * s_1 are reported as exact zeros, because they cannot
be told apart from rounding noise and p-th power sums with p < 1 would
magnify that noise.

All operations are pure functions of their inputs; returned containers hold
read-only arrays and are safe to share between threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralData",
    "as_matrix",
    "inner",
    "hermitian_defect",
    "hermitian_eigen",
    "svd",
    "schatten_norm",
    "psd_power",
]

#: The one rule for structure: h is Hermitian when its hermiticity defect is at
#: most STRUCTURAL_TOL * max|h|, and PSD when also lambda_min >= -STRUCTURAL_TOL
#: * rho(h).  A computed Gram product G G* (inner dimension n) has a defect of at
#: most 2 gamma_n max|h|, gamma_n = n u / (1 - n u), u = eps / 2 (Higham,
#: *Accuracy and Stability of Numerical Algorithms*, section 3.5, with
#: (|G| |G*|)_ij <= max|h| by Cauchy-Schwarz); eigh is backward stable, so by
#: Weyl's bound a PSD matrix shows eigenvalues >= -c n u rho(h).  1e-10 covers
#: both for c n <= 9e5, past any dense complex matrix that fits in memory.
STRUCTURAL_TOL = 1e-10

# The verdict budgets, each beside its source: a rounding analysis by Higham's bounds
# (H, the book above) or by Weyl's bound with gesdd's backward error (W, see `svd`), or
# a discretization bound (D).  `_verdict` judges a value against its target with them.
#: Policy slack of a sampled or witness sum against ||T||_p^p, relative to
#: max(1, ||T||_p^p), ten times IDENTITY_TOL; every certificate is judged against it.
CERTIFICATE_TOL = 1e-9
#: H: the sides of one identity (analysis, HS, quadrature mass and integrals, closed-form
#: bounds, probe sums) computed through sums of n products differ by gamma_n, as above.
IDENTITY_TOL = 1e-10
#: H: the same with a few operations per term (one quadrature node, <= 40 rebalanced
#: powers, successive partial sums): gamma_k covers k <= 9e3.
ELEMENTWISE_TOL = 1e-12
#: W: a family spans when lambda_min(S) > SPANNING_TOL lambda_max(S), past eigh's c n u.
SPANNING_TOL = 1e-10
#: W: singular values above RANK_TOL s_1 count towards the numerical rank.
RANK_TOL = 1e-12
#: W: each computed s_n of an n x n matrix lies within SV_TOL n eps s_1 of its exact value,
#: a modest multiple that also covers rounding in forming the matrix.
SV_TOL = 10
#: H: a pairing <T h, h> errs by about n u max|T|; one above PAIRING_TOL max|T| is kept
#: without a scan, and one above PAIRING_FLOOR max|T| (45 eps) is told apart from zero.
PAIRING_TOL, PAIRING_FLOOR = 1e-8, 1e-14
#: D: the monomial Gram at radius 1 - 1e-9 misses the mass 1 - r^(2n+2) <= 2e-9 (n+1).
ORTHONORMALITY_TOL = 1e-6
#: D: the five-point stencil's truncation and rounding, per (1 + max F)(1 + 1/h^2).
STENCIL_TOL = 1e-6
#: D: relative change of the sampling-chain constant from the coarse to the fine quadrature.
CHAIN_STABILITY_TOL = 1e-3

#: Most complex entries of one blocked matrix product, 2^13 (128 KiB): the synthesis
#: probe products A_k* F of `frames` and the kernel coefficients of `bergman` go in
#: blocks of at most this many where the shape allows.  A fresh `bergman --dim 32`,
#: whose widest probe product is 399 x 200, peaked at 43.6 MiB of RSS with that
#: product held whole and 512-point kernel blocks, and at 40.5 MiB with this budget
#: (256-point blocks); 2^14 read 41.5 MiB and 2^15 41.6 MiB.
_BLOCK_ENTRIES = 2**13


def _witness_budget(p: float, n_terms: int, term_scale: float) -> float:
    """Rounding allowance (H) for a sum of n p-th powers of computed pairings.

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


def _verdict(value, lo, hi, tol: float, scale, extra=0.0):
    """The margin of `value` inside [lo, hi] and whether it fits, elementwise.

    The margin is min(value - lo, hi - value) / max(1, scale); `value` fits when it
    lies within tol * max(1, scale) + extra of [lo, hi].  A one-sided check passes
    -inf or inf as its open end.  nan never fits; inf raises no float warning.
    """
    floor = np.maximum(1.0, scale)
    slack = tol * floor + extra
    with np.errstate(invalid="ignore", over="ignore"):
        margin = np.minimum(value - lo, hi - value) / floor
        return margin, (value >= lo - slack) & (value <= hi + slack)


def as_matrix(a) -> np.ndarray:
    """Validate and return `a` as a read-only complex128 2-d array.

    Rejects empty shapes and non-finite entries.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a nonempty 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite (no NaN/inf)")
    m = m.copy()
    m.flags.writeable = False
    return m


def _as_square(a) -> np.ndarray:
    """`as_matrix(a)`, rejected with its shape unless it is square."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"operator must be square, got shape {m.shape}")
    return m


def _is_real(value) -> bool:
    """True for int and float values (numpy scalars included), False for bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _positive_float(value) -> float | None:
    """`value` as a float if it is a real number whose float is finite and positive, else None.

    The float is judged, not `value`: an int past the float range compares below inf
    but has no float.
    """
    try:
        v = float(value) if _is_real(value) else math.nan
    except OverflowError:
        return None
    return v if 0 < v < math.inf else None


def _check_p(p: float) -> None:
    """Reject an exponent that `_positive_float` refuses: p <= 0, nan, inf, a bool, a str,
    or an int past the float range."""
    if _positive_float(p) is None:
        raise ValueError(f"p must be finite and positive, got {p}")


def _exponents(ps) -> None:
    """Reject a sequence of exponents unless `_check_p` takes each."""
    for q in ps:
        _check_p(q)


def _check_count(name: str, value) -> None:
    """Reject `value` unless it is an integer >= 1 (numpy integers count, bool does not)
    that numpy can take as an array length or index."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    if value > np.iinfo(np.intp).max:
        raise ValueError(f"{name} must be at most {np.iinfo(np.intp).max}, got {value!r}")


def _check_seed(value) -> None:
    """Reject a seed unless it is an integer >= 0 (numpy integers count, bool does not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"seed must be an integer >= 0, got {value!r}")


def _check_rmax(value) -> None:
    """Reject a disk radius `rmax` unless it is a real number in (0, 1)."""
    if not (_is_real(value) and 0 < value < 1):
        raise ValueError(f"rmax must be a number in (0, 1), got {value!r}")


def _gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """A complex standard Gaussian array: `rng` draws the real part, then the imaginary part.

    Every seeded complex draw of the package (trial frames and their ONBs,
    synthesis probes, campaign operators) is this one.
    """
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def inner(x: np.ndarray, y: np.ndarray) -> complex:
    """Inner product <x, y>, linear in x and conjugate-linear in y."""
    return complex(np.vdot(y, x))


def hermitian_defect(h: np.ndarray) -> float:
    """Max-entry deviation of `h` from its conjugate transpose."""
    h = np.asarray(h)
    return float(np.abs(h - h.conj().T).max())


def _is_hermitian(h: np.ndarray) -> bool:
    """Whether `h`, rejected unless square, is Hermitian by the rule of `STRUCTURAL_TOL`."""
    h = _as_square(h)
    return hermitian_defect(h) <= STRUCTURAL_TOL * np.abs(h).max()


def _is_psd(w: np.ndarray, what: str | None = None) -> bool:
    """PSD rule on the eigenvalues `w`; a failure raises a ValueError naming `what`, if given."""
    if w.min() >= -STRUCTURAL_TOL * np.abs(w).max():
        return True
    if what is not None:
        raise ValueError(f"{what} requires a PSD matrix (min eigenvalue {w.min():.3e})")
    return False


def _psd_eigenvalues(h: np.ndarray, what: str | None = None) -> np.ndarray | None:
    """Ascending eigenvalues of a Hermitian PSD `h`; else None, or a ValueError naming `what`."""
    w = np.linalg.eigvalsh(0.5 * (h + h.conj().T)) if _is_hermitian(h) else None
    if w is None and what is not None:
        raise ValueError(f"{what} requires a Hermitian matrix (defect {hermitian_defect(h):.3e})")
    return w if w is not None and _is_psd(w, what) else None


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Canonical decomposition T = sum_n s_n <., e_n> u_n.

    `singular_values` is nonincreasing with zeros retained up to
    min(rows, cols); `left_vectors` holds the u_n as columns and
    `right_vectors` the e_n, each family orthonormal.  `right_basis` is an
    orthonormal basis of C^cols that starts with the e_n; its extra columns
    (present when rows < cols) span part of ker T.
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    right_basis: np.ndarray


def hermitian_eigen(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (nonincreasing) and orthonormal eigenvectors of a Hermitian matrix.

    Rejects a non-square or, by the rule of `STRUCTURAL_TOL`, non-Hermitian input.
    Solver non-convergence surfaces as `numpy.linalg.LinAlgError`.
    """
    h = as_matrix(h)
    if not _is_hermitian(h):
        defect = hermitian_defect(h)
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} > {STRUCTURAL_TOL} max|h|")
    w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    order = np.argsort(w)[::-1]
    return w[order].copy(), v[:, order].copy()


def svd(t) -> SpectralData:
    """Singular value decomposition from one LAPACK gesdd call.

    The singular values are nonincreasing, with zeros retained up to
    min(rows, cols).  The factors come straight from gesdd, which is backward
    stable: the computed values are the exact singular values of T + E with
    ||E||_2 a modest multiple of eps * s_1, so each is accurate to that
    absolute level, tiny values included (no squaring of the condition
    number as in an eigensolve of T*T).

    Values at or below the noise floor max(rows, cols) * eps * s_1 are
    reported as exact zeros: they are indistinguishable from rounding noise,
    and for p < 1 that noise would otherwise leak into p-th power sums.  An
    s_1 that overflows raises a ValueError naming the scale of T.

    The right factor is requested in full, so `right_basis` is an
    orthonormal basis of C^cols whose first min(rows, cols) columns are the
    `right_vectors`; for rows >= cols that is the thin factor itself.
    """
    t = as_matrix(t)
    rows, cols = t.shape
    left, s, vh = np.linalg.svd(t, full_matrices=cols > rows)
    if not np.isfinite(s[0]):
        scale = np.abs(t.view(float)).max()  # real and imaginary parts: their modulus may overflow
        raise ValueError(f"s_1 overflows at the scale of T: entries reach {scale:.3e}")
    s[s <= max(rows, cols) * np.finfo(float).eps * s[0]] = 0.0
    basis = vh.conj().T
    for arr in (s, left, basis):
        arr.flags.writeable = False
    return SpectralData(
        singular_values=s, left_vectors=left, right_vectors=basis[:, : s.size], right_basis=basis
    )


def _power_sum(terms, p: float, axis=-1, weights=None):
    """The sums of terms**p over `axis`; with `weights`, the weighted sums of those over
    the last remaining axis (axis=() weights the powers themselves).

    Every p-th power sum of the package is taken here.  One past the double range
    is a ValueError naming p and the largest term.
    """
    with np.errstate(over="ignore"):
        sums = np.sum(terms**p, axis=axis)
        if weights is not None:
            sums = np.sum(weights * sums, axis=-1)
    if not np.isfinite(sums).all():
        raise ValueError(
            f"a p-th power sum overflows at p = {p}: its largest term is {float(np.max(terms))}"
        )
    return sums


def _pth_root(total: float, p: float) -> float:
    """total^(1/p) for the p-th power sum `total`; a root past the double range is a
    ValueError naming p."""
    with np.errstate(over="ignore"):
        root = float(np.float64(total) ** (1.0 / p))
    if not math.isfinite(root):
        raise ValueError(f"||T||_p^p = {total!r} at p = {p} has no representable p-th root")
    return root


def schatten_norm(t, p: float) -> float:
    """Schatten p-norm (sum of p-th powers of singular values)^(1/p), p > 0.

    A power sum or root past the double range is a ValueError naming p.
    """
    _check_p(p)
    return _pth_root(float(_power_sum(svd(t).singular_values, p)), p)


def psd_power(s, p: float) -> np.ndarray:
    """Hermitian PSD power s^p formed in the eigenbasis, p > 0.

    Negative eigenvalues that the PSD rule of `STRUCTURAL_TOL` accepts are
    clamped to zero; otherwise the most negative one is named in the error.
    """
    _check_p(p)
    w, v = hermitian_eigen(s)
    _is_psd(w, "psd_power")
    m = (v * np.maximum(w, 0.0) ** p) @ v.conj().T
    return 0.5 * (m + m.conj().T)
