"""Dense complex linear algebra: Hermitian eigensystems, singular value
decompositions, Schatten p-norms, positive square roots and powers, and the
self-adjoint splittings used by the frame criteria.

The SVD is one LAPACK gesdd call (`numpy.linalg.svd`), which is backward
stable: every singular value is accurate to a modest multiple of eps * s_1,
however small it is.  Values at or below the noise floor
max(rows, cols) * eps * s_1 are reported as exact zeros, because they cannot
be told apart from rounding noise and p-th power sums with p < 1 would
magnify that noise.  Roots, powers and sign parts of Hermitian matrices are
all applied to the eigenvalues by one helper.

All operations are pure functions of their inputs; returned containers hold
read-only arrays and are safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralData",
    "SelfAdjointParts",
    "as_matrix",
    "inner",
    "hermitian_defect",
    "hermitian_eigen",
    "svd",
    "singular_values",
    "schatten_norm",
    "operator_norm",
    "psd_sqrt",
    "psd_power",
    "self_adjoint_parts",
    "positive_four_parts",
    "trace_pairing",
]

#: Absolute tolerance for structural checks (hermiticity, PSD clamps).
STRUCTURAL_TOL = 1e-12


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


def _check_p(p: float) -> None:
    """Reject an exponent outside 0 < p < inf (nan included)."""
    if not 0 < p < np.inf:
        raise ValueError(f"p must be finite and positive, got {p}")


def _check_count(name: str, value) -> None:
    """Reject `value` unless it is an integer >= 1 (numpy integers count, bool does not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def inner(x: np.ndarray, y: np.ndarray) -> complex:
    """Inner product <x, y>, linear in x and conjugate-linear in y."""
    return complex(np.vdot(y, x))


def hermitian_defect(h: np.ndarray) -> float:
    """Max-entry deviation of `h` from its conjugate transpose."""
    h = np.asarray(h)
    return float(np.abs(h - h.conj().T).max())


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

    def reconstruct(self) -> np.ndarray:
        """Rebuild the matrix from its factors."""
        return (self.left_vectors * self.singular_values) @ self.right_vectors.conj().T


@dataclass(frozen=True, eq=False)
class SelfAdjointParts:
    """Splitting T = t1 + i*t2 into Hermitian parts."""

    t1: np.ndarray
    t2: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.t1 + 1j * self.t2


def hermitian_eigen(h, tol: float = STRUCTURAL_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (nonincreasing) and orthonormal eigenvectors of a Hermitian matrix.

    Rejects inputs whose hermiticity defect exceeds `tol` in max norm.
    Solver non-convergence surfaces as `numpy.linalg.LinAlgError`.
    """
    h = as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"matrix must be square, got shape {h.shape}")
    defect = hermitian_defect(h)
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} > tol {tol:.3e}")
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
    and for p < 1 that noise would otherwise leak into p-th power sums.

    The right factor is requested in full, so `right_basis` is an
    orthonormal basis of C^cols whose first min(rows, cols) columns are the
    `right_vectors`; for rows >= cols that is the thin factor itself.
    """
    t = as_matrix(t)
    rows, cols = t.shape
    left, s, vh = np.linalg.svd(t, full_matrices=cols > rows)
    s[s <= max(rows, cols) * np.finfo(float).eps * s[0]] = 0.0
    basis = vh.conj().T
    for arr in (s, left, basis):
        arr.flags.writeable = False
    return SpectralData(
        singular_values=s, left_vectors=left, right_vectors=basis[:, : s.size], right_basis=basis
    )


def singular_values(t) -> np.ndarray:
    """Nonincreasing singular values of `t` (zeros retained)."""
    return svd(t).singular_values


def schatten_norm(t, p: float) -> float:
    """Schatten p-norm (sum of p-th powers of singular values)^(1/p), p > 0."""
    _check_p(p)
    s = singular_values(t)
    return float(np.sum(s**p) ** (1.0 / p))


def operator_norm(t) -> float:
    """Largest singular value."""
    s = singular_values(t)
    return float(s[0]) if s.size else 0.0


def _spectral_functions(h, functions, psd_tol: float | None = None) -> list[np.ndarray]:
    """Hermitian matrices V f(w) V* for each f in `functions`, from one eigensystem.

    With `psd_tol`, H must be PSD: eigenvalues in [-psd_tol, 0) are clamped
    to zero and anything below -psd_tol is rejected with the most negative
    eigenvalue in the message.
    """
    tol = STRUCTURAL_TOL if psd_tol is None else max(psd_tol, STRUCTURAL_TOL)
    w, v = hermitian_eigen(h, tol=tol)
    if psd_tol is not None:
        if w.size and w[-1] < -psd_tol:
            raise ValueError(f"matrix is not PSD: most negative eigenvalue {w[-1]:.3e}")
        w = np.maximum(w, 0.0)
    out = []
    for f in functions:
        m = (v * f(w)) @ v.conj().T
        out.append(0.5 * (m + m.conj().T))
    return out


def psd_sqrt(s, tol: float = STRUCTURAL_TOL) -> np.ndarray:
    """Hermitian PSD square root of a Hermitian PSD matrix.

    Eigenvalues in [-tol, 0) are clamped to zero; anything below -tol is
    rejected with the most negative eigenvalue in the message.
    """
    return _spectral_functions(s, (np.sqrt,), psd_tol=tol)[0]


def psd_power(s, p: float, tol: float = STRUCTURAL_TOL) -> np.ndarray:
    """Hermitian PSD power s^p formed in the eigenbasis, p > 0."""
    _check_p(p)
    return _spectral_functions(s, (lambda w: w**p,), psd_tol=tol)[0]


def self_adjoint_parts(t) -> SelfAdjointParts:
    """Split a square matrix as T = T1 + i*T2 with T1, T2 Hermitian."""
    t = as_matrix(t)
    if t.shape[0] != t.shape[1]:
        raise ValueError(f"matrix must be square, got shape {t.shape}")
    t1 = 0.5 * (t + t.conj().T)
    t2 = (t - t.conj().T) / 2j
    t2 = 0.5 * (t2 + t2.conj().T)
    return SelfAdjointParts(t1=t1, t2=t2)


def positive_four_parts(s) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Write S = (S1 - S2) + i(S3 - S4) with each part Hermitian PSD.

    S1/S2 are the positive/negative parts of the Hermitian component of S,
    S3/S4 those of the skew component.
    """
    parts = self_adjoint_parts(s)
    signs = (lambda w: np.maximum(w, 0.0), lambda w: np.maximum(-w, 0.0))
    s1, s2 = _spectral_functions(parts.t1, signs)
    s3, s4 = _spectral_functions(parts.t2, signs)
    return s1, s2, s3, s4


def trace_pairing(t, s) -> complex:
    """Trace of the product T S for square matrices of matching dimension."""
    t = as_matrix(t)
    s = as_matrix(s)
    if t.shape[0] != t.shape[1] or t.shape != s.shape:
        raise ValueError(f"expected matching square matrices, got {t.shape} and {s.shape}")
    return complex(np.trace(t @ s))
