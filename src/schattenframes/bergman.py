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
from .linalg import ELEMENTWISE_TOL, IDENTITY_TOL, STENCIL_TOL, _as_square, _check_count
from .linalg import _BLOCK_ENTRIES, _check_p, _exponents, _is_real, _power_sum, _verdict, as_matrix

__all__ = [
    "DiskQuadrature",
    "SamplingLattice",
    "HSIdentityReport",
    "SamplingChainReport",
    "SubharmonicityReport",
    "bergman_kernel",
    "kernel_coefficients",
    "bergman_metric",
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
        if not abs(z) < 1.0:
            raise ValueError(f"point {z} is not in the open unit disk")


def _check_rmax(rmax) -> None:
    """Reject a radius `rmax` unless it is a real number in (0, 1)."""
    if not (_is_real(rmax) and 0 < rmax < 1):
        raise ValueError(f"rmax must lie in (0, 1), got {rmax}")


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


def _kernel_norms(points: np.ndarray, jobs, normalized: bool = True) -> np.ndarray:
    """Row j holds ||T (s K_w)|| (k_w if normalized) at each point w, for jobs[j] = (T, s).

    Each block of points has its coefficients built once for every job (s is
    None or scales each row).  Nearly equal blocks of at most
    max(3, _BLOCK_ENTRIES // degree) rows (256 at degree 32) have two or more
    rows each (one point aside), which gives the one-shot norms bit for bit
    on OpenBLAS's SkylakeX kernels, where this was measured; one row of many
    would not (GEMV).  Under Sandybridge kernels one norm of six differs in
    its last bit (ROADMAP item 15).
    """
    degree = jobs[0][0].shape[1]
    blocks = -(-points.size // max(3, _BLOCK_ENTRIES // degree))
    norms, stop = np.empty((len(jobs), points.size)), 0
    for block in np.array_split(points, max(1, blocks)):
        rows, stop = slice(stop, stop + block.size), stop + block.size
        base = _coefficient_matrix(block, degree, normalized)
        for norm, (t, scale) in zip(norms, jobs):
            scaled = base if scale is None else base * scale[rows, None]
            norm[rows] = np.linalg.norm(scaled @ t.T, axis=1)
    return norms


def kernel_coefficients(w: complex, d: int, normalized: bool = True) -> np.ndarray:
    """ONB coefficients of the (normalized) reproducing kernel at w.

    For the normalized kernel k_w = K_w / sqrt(K(w, w)) the n-th entry is
    (1-|w|^2) sqrt(n+1) conj(w)^n; without normalization the (1-|w|^2)
    factor is dropped.
    """
    _check_in_disk(w)
    _check_count("d", d)
    return _coefficient_matrix(np.array([w]), d, normalized)[0]


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


@dataclass(frozen=True, eq=False)
class SamplingLattice:
    """Points in the disk, pairwise separated in the Bergman metric.

    `separation` is the requested bound and `measured_separation` the least
    distance over all pairs (inf for one point), which `r_lattice` measures
    in O(n) bit-identically to a brute force over all pairs.
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
    the value a brute force over all pairs computes for that pair.
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
    if not (_is_real(separation) and 0 < separation < np.inf):
        raise ValueError(f"separation must be finite and positive, got {separation}")
    _check_rmax(rmax)
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


def sampling_frame(lattice: SamplingLattice, d: int) -> Frame:
    """Frame of normalized kernels at the lattice points, in C^d.

    Fails with diagnostics when the lattice is too sparse to span degree d.
    """
    _check_count("d", d)
    if lattice.points.size == 0:
        raise ValueError("lattice is empty")
    coeffs = _coefficient_matrix(lattice.points, d, normalized=True)
    try:
        return make_frame(coeffs.T)
    except ValueError as exc:
        raise ValueError(
            f"lattice too sparse for degree {d} "
            f"({lattice.points.size} points, separation {lattice.separation}): {exc}"
        ) from exc


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
    _check_rmax(rmax)
    x, v = np.polynomial.legendre.leggauss(n_radial)
    t = 0.5 * rmax**2 * (x + 1.0)
    vt = 0.5 * rmax**2 * v
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    nodes = (np.sqrt(t)[:, None] * np.exp(1j * theta)[None, :]).ravel()
    weights = np.repeat(vt / n_angular, n_angular)
    mass = float(np.sum(weights))
    if abs(mass - rmax**2) > IDENTITY_TOL:
        raise AssertionError(f"quadrature mass {mass} != rmax^2 {rmax**2}")
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return DiskQuadrature(nodes=nodes, weights_da=weights, rmax=rmax)


#: Nodes per block of `monomial_gram`.  With OpenBLAS's SkylakeX zgemm the blocked
#: sum keeps the bits of the one-shot product at degrees 2 to 8 and at multiples
#: of 8, where 256-node blocks do not past degree 8; at `bergman --dim 64` the
#: blocks cut the traced peak from 16.3 to 2.8 MiB.
_GRAM_BLOCK = 128


def monomial_gram(quad: DiskQuadrature, degree: int) -> np.ndarray:
    """Quadrature Gram matrix of the monomial ONB on |w| <= rmax.

    The exact value is diag(rmax^(2n+2)): orthogonality is killed by the
    angular rule and the diagonal carries the truncated radial mass.
    """
    _check_count("degree", degree)
    gram = np.zeros((degree, degree), dtype=np.complex128)
    for start in range(0, quad.nodes.size, _GRAM_BLOCK):
        rows = slice(start, start + _GRAM_BLOCK)
        basis = _coefficient_matrix(np.conj(quad.nodes[rows]), degree, normalized=False)
        gram += (basis.conj() * quad.weights_da[rows, None]).T @ basis
    return gram


def integral_criterion(t, p: float, quad: DiskQuadrature) -> float:
    """Quadrature value of the dlambda integral of ||T k_w||^p.

    Finiteness of this integral over the whole disk forces Schatten-p
    membership for 0 < p <= 2 and follows from it for p >= 2; at fixed
    rmax < 1 the value is a truncated surrogate (see `sampling_comparison`
    for the lattice-sum side of the chain).  Kernels go in blocks of nodes.
    A value past the double range is a ValueError naming p.
    """
    t = _as_square(t)
    _check_p(p)
    norms = _kernel_norms(quad.nodes, [(t, None)])[0]
    return float(_power_sum(norms, p, axis=(), weights=quad.weights_dlambda))


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
    t, p: float, quad: DiskQuadrature, lattice: SamplingLattice
) -> SamplingChainReport:
    """Compare the lattice sum of ||T k_w||^p against the dlambda integral.

    Separated lattices control the sum by a constant multiple of the
    integral (the metric balls around lattice points are disjoint); the
    constant is not explicit, so it is measured and reported.  Only lattice
    points inside the quadrature radius enter the sum; kernels go in blocks
    of points, as in `integral_criterion`.  A sum past the double range is a
    ValueError naming p.
    """
    return _sampling_comparisons(t, p, quad, [lattice])[0]


def _sampling_comparisons(t, p: float, quad: DiskQuadrature, lattices) -> list:
    """The `sampling_comparison` of each lattice, all from one integral."""
    t = as_matrix(t)
    integral = integral_criterion(t, p, quad)  # also validates p and the shape of t
    reports = []
    for lat in lattices:
        inside = lat.points[np.abs(lat.points) <= quad.rmax]
        lattice_sum = float(_power_sum(_kernel_norms(inside, [(t, None)])[0], p))
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
    return reports


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


def hs_identity_check(t, quad: DiskQuadrature) -> HSIdentityReport:
    """Check the Hilbert-Schmidt kernel-integral identity under quadrature.

    Both norms come from one pass over blocks of nodes: each kernel is built once.
    """
    t = _as_square(t)
    d = t.shape[1]
    # k_w = (1-|w|^2) K_w: the row scaling _coefficient_matrix applies when normalized
    shrink = 1.0 - np.abs(quad.nodes) ** 2
    norm_k, norm_big = _kernel_norms(quad.nodes, [(t, shrink), (t, None)], normalized=False)
    integrand_dlambda = norm_k**2 / shrink**2
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
    # the two integrals and the closed form agree; the HS norm also loses the truncation
    gaps = np.array([integral_dlambda - integral_da, integral_da - closed, integral_da - hs_sq])
    fits = _verdict(gaps, 0.0, 0.0, IDENTITY_TOL, hs_sq, np.array([0.0, 0.0, truncation]))[1]
    passed = pointwise_dev <= ELEMENTWISE_TOL and bool(fits.all())
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
    t, p: float, grid_step: float = 0.01, rmax: float = 0.9
) -> SubharmonicityReport:
    """Verify that w -> ||T K_w||^p has a nonnegative discrete Laplacian.

    The function is subharmonic for every p > 0 (it is the p-th power of the
    norm of an antianalytic vector-valued polynomial), so the five-point
    stencil minimum should only dip below zero by the discretization budget
    tol = STENCIL_TOL (1 + max F)(1 + 1/grid_step^2), STENCIL_TOL = 1e-6.  A p
    at which F or its stencil overflows on the grid is rejected.
    """
    return _subharmonicity([t], [p], grid_step, rmax)[0][0]


def _subharmonicity(ts, ps, grid_step: float, rmax: float) -> list:
    """reports[k][j], the `subharmonicity_check` of operator ts[k] at ps[j].

    The grid is built once, the kernels once per block of grid points for
    all operators, and ||T K_w|| once per operator; only the power and
    stencil run per p.
    """
    ops = [_as_square(op) for op in ts]
    _exponents(ps)
    _check_rmax(rmax)
    if not (_is_real(grid_step) and 0 < grid_step <= rmax):
        raise ValueError("grid_step must be positive and small relative to rmax")
    axis = np.arange(-rmax, rmax + grid_step / 2.0, grid_step)
    re, im = np.meshgrid(axis, axis, indexing="ij")
    w = re + 1j * im
    inside = np.abs(w) <= rmax
    all_norms = _kernel_norms(w[inside], [(op, None) for op in ops], normalized=False)
    values = np.full(w.shape, np.nan)
    reports = []
    for norms in all_norms:
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
            tol = STENCIL_TOL * (1.0 + max_f) * (1.0 + 1.0 / grid_step**2)
            row.append(
                SubharmonicityReport(least, location, tol, max_f, grid_step, rmax, least >= -tol)
            )
        reports.append(row)
    return reports
