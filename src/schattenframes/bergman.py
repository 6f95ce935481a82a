"""Truncated Bergman space of the unit disk: reproducing kernels, hyperbolic
sampling lattices, Mobius-invariant quadrature, a subharmonicity stencil, and
the kernel-integral criterion for Schatten membership.

The space of analytic functions square-integrable against normalized area
measure dA has reproducing kernel K(z, w) = 1/(1 - z conj(w))^2 and
orthonormal basis e_n(z) = sqrt(n+1) z^n; everything here works with the
degree-d truncation spanned by e_0..e_{d-1}.  The Mobius-invariant measure is
dlambda = dA / (1-|w|^2)^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import Frame, make_frame
from .linalg import _check_p, as_matrix

__all__ = [
    "TruncatedBergman",
    "DiskQuadrature",
    "SamplingLattice",
    "SamplingFrameReport",
    "HSIdentityReport",
    "SamplingChainReport",
    "SubharmonicityReport",
    "bergman_kernel",
    "kernel_coefficients",
    "kernel_truncation_defect",
    "bergman_metric",
    "min_pairwise_separation",
    "r_lattice",
    "sampling_frame",
    "disk_quadrature",
    "monomial_gram",
    "integral_criterion",
    "sampling_comparison",
    "hs_identity_check",
    "subharmonicity_check",
]


def _check_in_disk(*points) -> None:
    for z in points:
        if abs(z) >= 1.0:
            raise ValueError(f"point {z} is not in the open unit disk")


def _check_count(name: str, value) -> None:
    """Reject `value` unless it is an integer >= 1 (numpy integers count, bool does not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class TruncatedBergman:
    """Degree-d truncation spanned by the monomial ONB sqrt(n+1) z^n."""

    degree: int

    @property
    def onb_scaling(self) -> np.ndarray:
        return np.sqrt(np.arange(1, self.degree + 1, dtype=float))

    def evaluate(self, coeffs, z: complex) -> complex:
        """Value at z of the function with the given ONB coefficients."""
        coeffs = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
        if coeffs.size != self.degree:
            raise ValueError(f"expected {self.degree} coefficients, got {coeffs.size}")
        powers = z ** np.arange(self.degree)
        return complex(np.sum(coeffs * self.onb_scaling * powers))


def bergman_kernel(z: complex, w: complex) -> complex:
    """Reproducing kernel K(z, w) = 1/(1 - z conj(w))^2."""
    _check_in_disk(z, w)
    return 1.0 / (1.0 - z * np.conj(w)) ** 2


def _coefficient_matrix(points: np.ndarray, degree: int, normalized: bool) -> np.ndarray:
    """Rows are ONB coefficients of K_w (or k_w) at each point."""
    n = np.arange(degree)
    base = np.sqrt(n + 1.0) * np.conj(points)[:, None] ** n
    if normalized:
        base = base * (1.0 - np.abs(points) ** 2)[:, None]
    return base


def kernel_coefficients(w: complex, d: int, normalized: bool = True) -> np.ndarray:
    """ONB coefficients of the (normalized) reproducing kernel at w.

    For the normalized kernel k_w = K_w / sqrt(K(w, w)) the n-th entry is
    (1-|w|^2) sqrt(n+1) conj(w)^n; without normalization the (1-|w|^2)
    factor is dropped.  See `kernel_truncation_defect` for the discarded
    tail mass.
    """
    _check_in_disk(w)
    _check_count("d", d)
    return _coefficient_matrix(np.array([w]), d, normalized)[0]


def kernel_truncation_defect(w: complex, d: int) -> float:
    """Tail mass ||k_w||^2 - (truncated coefficient mass), in closed form.

    Equals (1-|w|^2)^2 sum_{n>=d} (n+1)|w|^(2n); the geometric tail sum is
    x^d (d(1-x) + 1) / (1-x)^2 with x = |w|^2.
    """
    _check_in_disk(w)
    _check_count("d", d)
    x = abs(w) ** 2
    if x == 0.0:
        return 0.0
    tail = x**d * (d * (1.0 - x) + 1.0) / (1.0 - x) ** 2
    return float((1.0 - x) ** 2 * tail)


def bergman_metric(z: complex, w: complex) -> float:
    """Hyperbolic distance (1/2) log((1+rho)/(1-rho)) = atanh(rho).

    rho is the pseudo-hyperbolic distance |(z - w)/(1 - conj(z) w)|; the
    metric is Mobius invariant, symmetric, and zero only at z = w.
    """
    _check_in_disk(z, w)
    return float(_pair_distances(z, w))


def _pair_distances(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Bergman distances of the pairs (z, w), broadcast elementwise."""
    rho = np.abs((z - w) / (1.0 - np.conj(z) * w))
    return np.arctanh(np.clip(rho, 0.0, 1.0 - 1e-16))


def min_pairwise_separation(points: np.ndarray) -> float:
    """Brute-force minimum Bergman distance over all point pairs."""
    pts = np.asarray(points, dtype=np.complex128).reshape(-1)
    if pts.size < 2:
        return float("inf")
    beta = _pair_distances(pts[:, None], pts[None, :])
    iu = np.triu_indices(pts.size, k=1)
    return float(np.min(beta[iu]))


@dataclass(frozen=True, eq=False)
class SamplingLattice:
    """Points in the disk, pairwise separated in the Bergman metric.

    `separation` is the requested bound and `measured_separation` the least
    distance over all pairs (inf for one point), which `r_lattice` measures
    in O(n) bit-identically to the brute-force `min_pairwise_separation`.
    """

    points: np.ndarray
    separation: float
    measured_separation: float


def _ring_count(radius: float, separation: float) -> int:
    """Largest angular count keeping same-ring neighbors >= separation apart."""
    rho_target = np.tanh(separation)
    r2 = radius * radius
    # cos(angle) at which the pseudo-hyperbolic gap equals the target
    u = (2.0 * r2 - rho_target**2 * (1.0 + r2 * r2)) / (2.0 * r2 * (1.0 - rho_target**2))
    if not -1.0 <= u < 1.0:
        # u < -1: even antipodal points fall short of the target (u >= 1 needs radius 1)
        return 1
    theta = float(np.arccos(u))
    return max(1, int(np.floor(2.0 * np.pi / theta)))


def _ring_separation(rings: list[np.ndarray], offsets: list[np.ndarray]) -> float:
    """Minimum Bergman distance of a ring lattice, from O(n) pairs.

    rings[0] is the origin and rings[k] holds points on a circle at the
    angles offsets[k], evenly spaced and increasing; the circles grow with k,
    and no two rings two or more apart may hold the closest pair (r_lattice's
    radii guarantee this).  Within one ring, and between two rings, the
    distance of two points grows with the angle between them, so each point
    is paired with its two neighbours on its ring and with the two points of
    the next ring on either side of its angle (the origin with all of ring 1).
    Pairs are taken inner point first, in lattice order, so each distance is
    the value `min_pairwise_separation` computes for that pair.
    """
    if len(rings) < 2:
        return float("inf")
    gaps = [_pair_distances(rings[0], rings[1])]
    for k in range(1, len(rings)):
        ring = rings[k]
        if ring.size > 1:
            gaps += [_pair_distances(ring[:-1], ring[1:]), _pair_distances(ring[0], ring[-1])]
        if k + 1 < len(rings):
            outer, outer_offsets = rings[k + 1], offsets[k + 1]
            m = outer.size
            step = 2.0 * np.pi / m
            below = np.floor((offsets[k] - outer_offsets[0]) / step).astype(int) % m
            for nearest in (below, (below + 1) % m):
                gaps.append(_pair_distances(ring, outer[nearest]))
    return float(min(np.min(g) for g in gaps))


def r_lattice(separation: float, rmax: float) -> SamplingLattice:
    """Concentric-ring lattice with pairwise Bergman separation >= separation.

    Ring radii sit at hyperbolic distance `separation` from each other
    starting at the origin (so inter-ring separation holds at any angle);
    the angular spacing on each ring is chosen from the same-ring distance
    formula.  A tiny padding absorbs rounding so the pairwise check holds
    strictly; it runs at construction, in O(n) (see `_ring_separation`).
    """
    if not 0 < separation < np.inf:
        raise ValueError(f"separation must be finite and positive, got {separation}")
    if not 0 < rmax < 1:
        raise ValueError(f"rmax must lie in (0, 1), got {rmax}")
    padded = separation * (1.0 + 1e-9) + 1e-12
    rings = [np.zeros(1, dtype=np.complex128)]
    offsets = [np.zeros(1)]
    ring = 1
    while np.tanh(ring * padded) <= rmax:
        radius = float(np.tanh(ring * padded))
        m = _ring_count(radius, padded)
        offsets.append(2.0 * np.pi * np.arange(m) / m + (np.pi / m) * (ring % 2))
        rings.append(radius * np.exp(1j * offsets[-1]))
        ring += 1
    pts = np.concatenate(rings)
    # Ring k has hyperbolic radius atanh(tanh(k * padded)) = k * padded, and by
    # the triangle inequality through the origin two points lie at least the
    # difference of their ring radii apart: rings two or more apart are at
    # least 2 * padded apart, farther than the origin is from ring 1
    # (padded), so the minimum over all pairs is on one ring or two adjacent ones.
    measured = _ring_separation(rings, offsets)
    if measured < separation:
        raise AssertionError(
            f"lattice construction violated separation: {measured} < {separation}"
        )
    pts.flags.writeable = False
    return SamplingLattice(points=pts, separation=separation, measured_separation=measured)


@dataclass(frozen=True)
class SamplingFrameReport:
    degree: int
    count: int
    separation: float
    lower_bound: float
    upper_bound: float
    condition: float


def sampling_frame(lattice: SamplingLattice, d: int) -> tuple[Frame, SamplingFrameReport]:
    """Frame of normalized kernels at the lattice points, with bounds report.

    Fails with diagnostics when the lattice is too sparse to span degree d.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if lattice.points.size == 0:
        raise ValueError("lattice is empty")
    coeffs = _coefficient_matrix(lattice.points, d, normalized=True)
    try:
        frame = make_frame(coeffs.T)
    except ValueError as exc:
        raise ValueError(
            f"lattice too sparse for degree {d} "
            f"({lattice.points.size} points, separation {lattice.separation}): {exc}"
        ) from exc
    report = SamplingFrameReport(
        degree=d,
        count=frame.count,
        separation=lattice.separation,
        lower_bound=frame.lower_bound,
        upper_bound=frame.upper_bound,
        condition=frame.condition,
    )
    return frame, report


@dataclass(frozen=True, eq=False)
class DiskQuadrature:
    """Nodes and dA-weights on |w| <= rmax (dA normalized to unit disk area).

    The dlambda weights divide by (1-|w|^2)^2.  Total dA mass is rmax^2.
    """

    nodes: np.ndarray
    weights_da: np.ndarray
    rmax: float

    @property
    def weights_dlambda(self) -> np.ndarray:
        return self.weights_da / (1.0 - np.abs(self.nodes) ** 2) ** 2


def disk_quadrature(n_radial: int, n_angular: int, rmax: float) -> DiskQuadrature:
    """Tensor rule: Gauss-Legendre in r^2 on [0, rmax^2] x uniform angles.

    Exact for integrands whose angular average is a polynomial of degree
    <= 2 n_radial - 1 in r^2, provided the angular frequencies present are
    smaller than n_angular in absolute value (the uniform rule integrates
    e^(ij theta) to zero exactly for 0 < |j| < n_angular).
    """
    _check_count("n_radial", n_radial)
    _check_count("n_angular", n_angular)
    if not 0 < rmax < 1:
        raise ValueError(f"rmax must lie in (0, 1), got {rmax}")
    x, v = np.polynomial.legendre.leggauss(n_radial)
    t = 0.5 * rmax**2 * (x + 1.0)
    vt = 0.5 * rmax**2 * v
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    nodes = (np.sqrt(t)[:, None] * np.exp(1j * theta)[None, :]).ravel()
    weights = np.repeat(vt / n_angular, n_angular)
    mass = float(np.sum(weights))
    if abs(mass - rmax**2) > 1e-10:
        raise AssertionError(f"quadrature mass {mass} != rmax^2 {rmax**2}")
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return DiskQuadrature(nodes=nodes, weights_da=weights, rmax=rmax)


def monomial_gram(quad: DiskQuadrature, degree: int) -> np.ndarray:
    """Quadrature Gram matrix of the monomial ONB on |w| <= rmax.

    The exact value is diag(rmax^(2n+2)): orthogonality is killed by the
    angular rule and the diagonal carries the truncated radial mass.
    """
    basis = np.sqrt(np.arange(1, degree + 1)) * quad.nodes[:, None] ** np.arange(degree)
    return (basis.conj() * quad.weights_da[:, None]).T @ basis


def integral_criterion(t, p: float, quad: DiskQuadrature) -> float:
    """Quadrature value of the dlambda integral of ||T k_w||^p.

    Finiteness of this integral over the whole disk forces Schatten-p
    membership for 0 < p <= 2 and follows from it for p >= 2; at fixed
    rmax < 1 the value is a truncated surrogate (see `sampling_comparison`
    for the lattice-sum side of the chain).
    """
    t = as_matrix(t)
    _check_p(p)
    if t.shape[0] != t.shape[1]:
        raise ValueError("operator must be square")
    coeffs = _coefficient_matrix(quad.nodes, t.shape[1], normalized=True)
    norms = np.linalg.norm(coeffs @ t.T, axis=1)
    return float(np.sum(quad.weights_dlambda * norms**p))


@dataclass(frozen=True)
class SamplingChainReport:
    """Measured constant in (lattice sum) <= C * (dlambda integral)."""

    separation: float
    rmax: float
    points_used: int
    lattice_sum: float
    integral: float
    constant: float


def sampling_comparison(
    t, p: float, quad: DiskQuadrature, lattice
) -> SamplingChainReport | list[SamplingChainReport]:
    """Compare the lattice sum of ||T k_w||^p against the dlambda integral.

    Separated lattices control the sum by a constant multiple of the
    integral (the metric balls around lattice points are disjoint); the
    constant is not explicit, so it is measured and reported.  Only lattice
    points inside the quadrature radius enter the sum.  `lattice` may be a
    sequence of lattices, giving one report per lattice from one integral.
    """
    t = as_matrix(t)
    integral = integral_criterion(t, p, quad)  # also validates p and the shape of t
    many = not isinstance(lattice, SamplingLattice)
    reports = []
    for lat in lattice if many else [lattice]:
        inside = lat.points[np.abs(lat.points) <= quad.rmax]
        coeffs = _coefficient_matrix(inside, t.shape[1], normalized=True)
        lattice_sum = float(np.sum(np.linalg.norm(coeffs @ t.T, axis=1) ** p))
        reports.append(
            SamplingChainReport(
                separation=lat.separation,
                rmax=quad.rmax,
                points_used=int(inside.size),
                lattice_sum=lattice_sum,
                integral=integral,
                constant=lattice_sum / integral if integral > 0 else float("inf"),
            )
        )
    return reports if many else reports[0]


@dataclass(frozen=True)
class HSIdentityReport:
    """The two Hilbert-Schmidt integrals against the squared HS norm.

    ``integral_dlambda`` uses the normalized kernel against dlambda,
    ``integral_da`` the unnormalized kernel against dA; the integrands agree
    pointwise by algebra.  ``mode_closed_form`` is
    sum_n ||T e_n||^2 rmax^(2n+2) and ``truncation_bound`` the mass the
    rmax cutoff discards from ||T||_2^2.
    """

    integral_dlambda: float
    integral_da: float
    pointwise_dev: float
    hs_norm_sq: float
    mode_closed_form: float
    truncation_bound: float
    passed: bool


def hs_identity_check(t, quad: DiskQuadrature, tol: float = 1e-10) -> HSIdentityReport:
    """Check the Hilbert-Schmidt kernel-integral identity under quadrature."""
    t = as_matrix(t)
    if t.shape[0] != t.shape[1]:
        raise ValueError("operator must be square")
    d = t.shape[1]
    big = _coefficient_matrix(quad.nodes, d, normalized=False)
    # k_w = (1-|w|^2) K_w: the row scaling _coefficient_matrix applies when normalized
    norm_k = np.linalg.norm((big * (1.0 - np.abs(quad.nodes) ** 2)[:, None]) @ t.T, axis=1)
    norm_big = np.linalg.norm(big @ t.T, axis=1)
    integrand_dlambda = norm_k**2 / (1.0 - np.abs(quad.nodes) ** 2) ** 2
    integrand_da = norm_big**2
    scale = np.maximum(integrand_da, 1e-300)
    pointwise_dev = float(np.max(np.abs(integrand_dlambda - integrand_da) / scale))
    integral_dlambda = float(np.sum(quad.weights_da * integrand_dlambda))
    integral_da = float(np.sum(quad.weights_da * integrand_da))
    col_norms_sq = np.linalg.norm(t, axis=0) ** 2
    hs_sq = float(np.sum(col_norms_sq))
    masses = quad.rmax ** (2.0 * np.arange(1, d + 1))
    closed = float(np.sum(col_norms_sq * masses))
    truncation = float(np.sum(col_norms_sq * (1.0 - masses)))
    budget = tol * max(1.0, hs_sq)
    passed = (
        pointwise_dev <= 1e-12
        and abs(integral_dlambda - integral_da) <= budget
        and abs(integral_da - closed) <= budget
        and abs(integral_da - hs_sq) <= truncation + budget
    )
    return HSIdentityReport(
        integral_dlambda=integral_dlambda,
        integral_da=integral_da,
        pointwise_dev=pointwise_dev,
        hs_norm_sq=hs_sq,
        mode_closed_form=closed,
        truncation_bound=truncation,
        passed=passed,
    )


@dataclass(frozen=True)
class SubharmonicityReport:
    """Minimum five-point discrete Laplacian of ||T K_w||^p on a grid."""

    min_laplacian: float
    location: complex
    tolerance: float
    max_value: float
    grid_step: float
    rmax: float
    passed: bool


def subharmonicity_check(
    t, p, grid_step: float = 0.01, rmax: float = 0.9
) -> SubharmonicityReport | list:
    """Verify that w -> ||T K_w||^p has a nonnegative discrete Laplacian.

    The function is subharmonic for every p > 0 (it is the p-th power of the
    norm of an antianalytic vector-valued polynomial), so the five-point
    stencil minimum should only dip below zero by the discretization budget
    tol = 1e-6 (1 + max F)(1 + 1/grid_step^2).  A p at which F or its
    stencil overflows on the grid is rejected.

    `t` may be a stack (n, d, d) and `p` a sequence; reports[k][j] is then
    the one-operator report of operator k at p[j], bit for bit, and a single
    operator or p drops its list level.  The grid and its kernels are built
    once and ||T K_w|| once per operator; only the power and stencil run per p.
    """
    stacked, many_p = np.ndim(t) == 3, np.ndim(p) == 1
    ops = [as_matrix(op) for op in (t if stacked else [t])]
    ps = list(p) if many_p else [p]
    for q in ps:
        _check_p(q)
    if any(op.shape[0] != op.shape[1] for op in ops):
        raise ValueError("operator must be square")
    if not 0 < rmax < 1:
        raise ValueError(f"rmax must lie in (0, 1), got {rmax}")
    if grid_step <= 0 or grid_step > rmax:
        raise ValueError("grid_step must be positive and small relative to rmax")
    axis = np.arange(-rmax, rmax + grid_step / 2.0, grid_step)
    re, im = np.meshgrid(axis, axis, indexing="ij")
    w = re + 1j * im
    inside = np.abs(w) <= rmax
    coeffs = _coefficient_matrix(w[inside], np.shape(t)[-1], normalized=False)
    values = np.full(w.shape, np.nan)
    reports = []
    for op in ops:
        norms = np.linalg.norm(coeffs @ op.T, axis=1)
        row = []
        for q in ps:
            with np.errstate(over="ignore"):
                values[inside] = norms**q
            max_f = float(np.max(values[inside]))
            # no intermediate of the stencil exceeds 4 max F / grid_step^2 in size
            if not np.isfinite(4.0 * max_f / grid_step**2):
                raise ValueError(f"||T K_w||^p or its stencil overflows on the grid at p = {q}")
            lap = (
                values[2:, 1:-1]
                + values[:-2, 1:-1]
                + values[1:-1, 2:]
                + values[1:-1, :-2]
                - 4.0 * values[1:-1, 1:-1]
            ) / grid_step**2
            flat = np.where(np.isfinite(lap), lap, np.inf)
            idx = np.unravel_index(int(np.argmin(flat)), flat.shape)
            least, location = float(flat[idx]), complex(w[1:-1, 1:-1][idx])
            if least == np.inf:
                raise ValueError("no grid point has a full five-point stencil inside the disk")
            tol = 1e-6 * (1.0 + max_f) * (1.0 + 1.0 / grid_step**2)
            row.append(
                SubharmonicityReport(least, location, tol, max_f, grid_step, rmax, least >= -tol)
            )
        reports.append(row if many_p else row[0])
    return reports if stacked else reports[0]
