"""Spectral kernel tests: eigensystems, SVD, Schatten norms, PSD powers."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seeded_operators, seeded_psds
from schattenframes.campaigns import random_operator
from schattenframes.linalg import (
    STRUCTURAL_TOL,
    _is_hermitian,
    _psd_eigenvalues,
    _verdict,
    hermitian_eigen,
    inner,
    psd_power,
    schatten_norm,
    svd,
)

EPS = np.finfo(float).eps

#: SVD error budget in units of max(rows, cols) * eps * s_1, fixed before any
#: measurement: gesdd returns the exact singular values of T + E with ||E||_2
#: a modest multiple of that unit (LAPACK Users' Guide, sec. 4.9), Weyl bounds
#: each value's error by ||E||_2, and forming a test matrix or the product
#: U S V* adds a few units more.  Factor orthonormality uses the same
#: constant in units of max(rows, cols) * eps.
SVD_C = 10


def assert_valid_svd(t):
    """svd(t) raises nothing and meets its contract within the SVD_C budget."""
    t = np.asarray(t, dtype=complex)
    rows, cols = t.shape
    n = max(rows, cols)
    data = svd(t)
    s = data.singular_values
    assert s.size == min(rows, cols)
    assert np.all(s >= 0) and np.all(np.diff(s) <= 0)
    assert data.right_basis.shape == (cols, cols)
    np.testing.assert_array_equal(data.right_basis[:, : s.size], data.right_vectors)
    for u in (data.left_vectors, data.right_basis):
        assert np.abs(u.conj().T @ u - np.eye(u.shape[1])).max() <= SVD_C * n * EPS
    budget = SVD_C * n * EPS * s[0]
    product = (data.left_vectors * s) @ data.right_vectors.conj().T
    assert np.linalg.norm(product - t, 2) <= budget
    assert np.linalg.norm(t @ data.right_basis[:, s.size :], 2) <= budget


def low_rank(rng, rows, cols, rank):
    """Complex Gaussian product G H* of the given rank (0 gives the zero matrix)."""
    g = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
    h = rng.standard_normal((cols, rank)) + 1j * rng.standard_normal((cols, rank))
    return g @ h.conj().T


class TestHermitianEigen:
    def test_diagonal(self):
        w, v = hermitian_eigen(np.diag([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(w, [3.0, 2.0, 1.0])
        # eigenvectors form a permuted identity
        np.testing.assert_allclose(np.abs(v), np.eye(3)[:, ::-1], atol=1e-14)

    def test_two_by_two(self):
        # characteristic polynomial mu^2 - 4 mu + 3 has roots 3 and 1
        w, v = hermitian_eigen([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(w, [3.0, 1.0], atol=1e-14)
        h = np.array([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(h @ v, v * w, atol=1e-13)

    def test_pauli_type(self):
        # mu^2 - 1 = 0
        w, _ = hermitian_eigen([[0.0, -1j], [1j, 0.0]])
        np.testing.assert_allclose(w, [1.0, -1.0], atol=1e-14)

    def test_rejects_non_hermitian_with_defect(self):
        with pytest.raises(ValueError, match="defect"):
            hermitian_eigen([[0.0, 1.0], [0.0, 0.0]])

    def test_orthonormal_eigenvectors(self):
        h = np.array([[1.0, 1j, 0.5], [-1j, 2.0, 0.0], [0.5, 0.0, -1.0]])
        w, v = hermitian_eigen(h)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(3), atol=1e-12)
        assert np.all(np.diff(w) <= 0)


def structured(rng, dim, family, factor):
    """A matrix of `family`; the two boundary families sit `factor` times the rule's tolerance
    from its boundary: a hermiticity defect of factor * STRUCTURAL_TOL * max|h|, or a least
    eigenvalue of -factor * STRUCTURAL_TOL * rho(h)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if family == "general":
        return g
    if family == "gram":  # G G* of rank < dim, PSD up to the product's rounding
        return g[:, 1:] @ g[:, 1:].conj().T
    h = 0.5 * (g + g.conj().T)
    if family == "near_hermitian":
        h[0, 1] += 1j * factor * STRUCTURAL_TOL * np.abs(h).max()
    elif family == "near_psd":
        w = np.append(rng.uniform(0.5, 1.0, dim - 1), -factor * STRUCTURAL_TOL)
        u = np.linalg.qr(g)[0]
        h = (u * w) @ u.conj().T
    return h


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(
    dim=st.integers(2, 6),
    family=st.sampled_from(["general", "hermitian", "gram", "near_hermitian", "near_psd"]),
    factor=st.sampled_from([0.5, 2.0]),
    k=st.integers(-200, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_structure_verdicts_are_scale_invariant(dim, family, factor, k, seed):
    # 2^k h is exact, so the relative defect and the eigenvalue ratio are unchanged
    h = structured(np.random.default_rng(seed), dim, family, factor)
    hermitian, psd = _is_hermitian(h), _psd_eigenvalues(h) is not None
    assert _is_hermitian(2.0**k * h) == hermitian
    assert (_psd_eigenvalues(2.0**k * h) is not None) == psd
    if family == "near_hermitian":
        assert hermitian == (factor < 1)
    if family in ("gram", "near_psd"):
        assert psd == (family == "gram" or factor < 1)


class TestSvd:
    def test_identity(self):
        np.testing.assert_allclose(svd(np.eye(3)).singular_values, [1.0, 1.0, 1.0])

    def test_nilpotent(self):
        np.testing.assert_allclose(svd([[0.0, 2.0], [0.0, 0.0]]).singular_values, [2.0, 0.0])

    def test_rank_one_column(self):
        # T*T = [[25, 0], [0, 0]]
        np.testing.assert_allclose(svd([[3.0, 0.0], [4.0, 0.0]]).singular_values, [5.0, 0.0])

    @pytest.mark.parametrize("shape", [(4, 4), (6, 3), (3, 6), (32, 32)])
    def test_reconstruction_and_unitarity(self, shape, rng):
        t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        data = svd(t)
        assert np.all(np.diff(data.singular_values) <= 1e-12)
        assert np.all(data.singular_values >= 0)
        assert data.singular_values.size == min(shape)
        for u in (data.left_vectors, data.right_vectors):
            np.testing.assert_allclose(u.conj().T @ u, np.eye(u.shape[1]), atol=1e-10)
        product = (data.left_vectors * data.singular_values) @ data.right_vectors.conj().T
        err = np.linalg.norm(product - t) / np.linalg.norm(t)
        assert err < 1e-9

    def test_against_lapack_oracle(self, rng):
        # svd is gesdd itself, so this only guards the wrapper; the exact
        # spectra below are the independent check
        for _ in range(20):
            t = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            expected = np.linalg.svd(t, compute_uv=False)
            np.testing.assert_allclose(svd(t).singular_values, expected, atol=1e-10)

    def test_zero_matrix(self):
        data = svd(np.zeros((3, 3)))
        np.testing.assert_allclose(data.singular_values, 0.0)
        product = (data.left_vectors * data.singular_values) @ data.right_vectors.conj().T
        np.testing.assert_allclose(product, 0.0, atol=1e-15)

    def test_overflowing_largest_value_names_the_scale(self):
        # gesdd returns s = [inf, 0]; the noise floor inf * eps once zeroed both
        # values, so ||T||_2 read 0.0
        big = np.full((2, 2), 1e308)
        named = r"s_1 overflows at the scale of T: entries reach 1\.000e\+308"
        with pytest.raises(ValueError, match=named):
            svd(big)
        with pytest.raises(ValueError, match=named):
            schatten_norm(big, 2)
        # the scale is named by the entries' parts, whose modulus 2.1e308 overflows
        with pytest.raises(ValueError, match=r"entries reach 1\.500e\+308"):
            svd(np.full((2, 2), 1.5e308 + 1.5e308j))

    @pytest.mark.parametrize("d", [25, 32, 64, 192])
    def test_graded_spectrum(self, d):
        # Q diag(2^-n) Q*: exact singular values far below sqrt(eps) * s_1
        rng = np.random.default_rng(d)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        expected = 2.0 ** -np.arange(1, d + 1, dtype=float)
        s = svd((q * expected) @ q.conj().T).singular_values
        assert np.abs(s - expected).max() <= SVD_C * d * EPS * expected[0]
        # values at or below the noise floor are exact zeros
        assert not np.any((s > 0) & (s <= d * EPS * s[0]))

    def test_rank_deficient_sweep(self):
        rng = np.random.default_rng(2024)
        for i in range(300):
            rank = int(rng.integers(1, 8))
            assert_valid_svd((1e-8, 1e8)[i % 2] * low_rank(rng, 8, 8, rank))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    rank=st.integers(0, 12),
    exponent=st.floats(-8.0, 8.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_svd_properties(rows, cols, rank, exponent, seed):
    rng = np.random.default_rng(seed)
    assert_valid_svd(10.0**exponent * low_rank(rng, rows, cols, min(rank, rows, cols)))


class TestSchattenNorm:
    def test_diag_hs(self):
        assert schatten_norm(np.diag([3.0, 4.0]), 2) == pytest.approx(5.0)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.5])
    def test_identity_any_p(self, p):
        assert schatten_norm(np.eye(4), p) == pytest.approx(4.0 ** (1.0 / p))

    def test_trace_norm_sum(self):
        assert schatten_norm(np.diag([1.0, 0.5, 0.25]), 1) == pytest.approx(1.75)

    def test_rejects_nonpositive_p(self):
        with pytest.raises(ValueError, match="positive"):
            schatten_norm(np.eye(2), 0.0)

    @pytest.mark.parametrize("p", [np.nan, np.inf])
    def test_rejects_nonfinite_p(self, p):
        with pytest.raises(ValueError, match="p must be"):
            schatten_norm(np.eye(2), p)

    @pytest.mark.parametrize("p", ["2", True, 10**400], ids=["str", "bool", "int-past-float"])
    def test_rejects_p_without_a_finite_positive_float(self, p):
        # a str is no number, True no exponent, and 10**400 has no float
        with pytest.raises(ValueError, match=re.escape(f"p must be finite and positive, got {p}")):
            schatten_norm(np.eye(2), p)

    @pytest.mark.parametrize(
        "scale,p,named",
        [
            (4.0, 1000, "a p-th power sum overflows at p = 1000"),
            (1.0, 1e-9, "at p = 1e-09 has no representable p-th root"),
        ],
        ids=["sum", "root"],
    )
    def test_past_the_double_range_names_p(self, scale, p, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            schatten_norm(scale * random_operator(3, 1), p)

    def test_zero_iff_zero(self, rng):
        assert schatten_norm(np.zeros((3, 3)), 1.5) == 0.0
        t = rng.standard_normal((3, 3))
        assert schatten_norm(t, 1.5) > 0.0

    def test_monotone_in_p(self):
        for t in seeded_operators(6, 10):
            values = [schatten_norm(t, p) for p in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)]
            assert all(a >= b - 1e-12 * abs(a) for a, b in zip(values, values[1:]))

    def test_ideal_property(self):
        # ||A T B||_p <= ||A|| ||T||_p ||B||
        for i, (a, t, b) in enumerate(
            zip(seeded_operators(5, 8, 0), seeded_operators(5, 8, 100), seeded_operators(5, 8, 200))
        ):
            for p in (0.5, 1.0, 2.0, 3.0):
                lhs = schatten_norm(a @ t @ b, p)
                rhs = np.linalg.norm(a, 2) * schatten_norm(t, p) * np.linalg.norm(b, 2)
                assert lhs <= rhs * (1 + 1e-9), (i, p)

    def test_hoelder_trace_inequality(self):
        for t, s in zip(seeded_operators(6, 10, 0), seeded_operators(6, 10, 50)):
            for p in (1.5, 2.0, 3.0):
                q = p / (p - 1.0)
                lhs = abs(np.trace(t @ s))
                rhs = schatten_norm(t, p) * schatten_norm(s, q)
                assert lhs <= rhs * (1 + 1e-9)


class TestPsdPower:
    def test_jensen_inequality(self, rng):
        # <T^p e, e> <= <T e, e>^p for PSD T, unit e, 0 < p <= 1
        for s in seeded_psds(6, 25):
            for p in (0.25, 0.5, 0.75, 1.0):
                tp = psd_power(s, p)
                e = rng.standard_normal(6) + 1j * rng.standard_normal(6)
                e /= np.linalg.norm(e)
                lhs = inner(tp @ e, e).real
                rhs = inner(s @ e, e).real ** p
                assert lhs <= rhs + 1e-10

    def test_power_one_is_identity_map(self):
        s = np.array([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(psd_power(s, 1.0), s, atol=1e-13)

    def test_square_matches_product(self):
        s = np.array([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(psd_power(s, 2.0), s @ s, atol=1e-12)

    def test_square_root_of_diagonal(self):
        np.testing.assert_allclose(
            psd_power(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]), atol=1e-13
        )

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="-1"):
            psd_power(np.diag([1.0, -1.0]), 0.5)

    def test_square_root_roundtrip(self):
        for s in seeded_psds(6, 5):
            r = psd_power(s, 0.5)
            np.testing.assert_allclose(r @ r, s, atol=1e-11 * np.linalg.norm(s))


#: The checks `_verdict` replaced, as they were written: the ends (lo, hi), the
#: scale ("value": the value itself), whether v fits with slack s, and the margin
#: they reported (None: none).  A two-sided equality is judged as its gap against [0, 0].
REPLACED = {
    "sup_below": (-np.inf, 5.0, 5.0, lambda v, s: v <= 5.0 + s, None),
    "inf_above": (5.0, np.inf, 5.0, lambda v, s: v >= 5.0 - s, None),
    "equality_gap": (0.0, 0.0, 5.0, lambda v, s: abs(v) <= s, None),
    "enclosure": (
        2.0, 7.0, 7.0,
        lambda v, s: (v >= 2.0 - s) & (v <= 7.0 + s),
        lambda v: np.minimum(v - 2.0, 7.0 - v) / np.maximum(1.0, 7.0),
    ),
    "upper_margin": (-np.inf, 7.0, "value", None, lambda v: (7.0 - v) / np.maximum(1.0, v)),
    "lower_margin": (2.0, np.inf, "value", None, lambda v: (v - 2.0) / np.maximum(1.0, v)),
}


@pytest.mark.parametrize("check", REPLACED)
def test_verdict_reproduces_each_check_it_replaced(check):
    lo, hi, scale, fits, margin_of = REPLACED[check]
    tol, extra = 1e-9, 1e-7

    def scale_of(value):
        return value if scale == "value" else scale

    values = np.array([-3.0, 0.0, 0.5, 2.0, 4.75, 5.0, 6.5, 7.0, 11.0, 1e3])
    margin, ok = _verdict(values, lo, hi, tol, scale_of(values), extra)
    if margin_of is not None:  # the reported margins, bit for bit
        assert margin.tobytes() == margin_of(values).tobytes()
    if fits is not None:
        slack = tol * max(1.0, scale) + extra
        assert np.array_equal(ok, fits(values, slack))
        # a value exactly at a finite end plus the slack fits, the next float out does not
        for end, out in ((hi, np.inf), (lo, -np.inf)):
            if np.isfinite(end):
                edge = end + slack if out > 0 else end - slack
                assert _verdict(edge, lo, hi, tol, scale, extra)[1]
                assert not _verdict(np.nextafter(edge, out), lo, hi, tol, scale, extra)[1]
    # infinite and nan values as Python or numpy floats: the old verdict, and no float warning
    for v in (np.inf, -np.inf, np.nan):
        for value in (float(v), np.float64(v)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                judged = _verdict(value, lo, hi, tol, scale_of(value), extra)
            if fits is not None:
                assert bool(judged[1]) == bool(fits(value, slack)), (value, judged)
