"""Bergman-space experiments on the truncated disk.

The normalized reproducing kernels k_w are unit vectors indexed by the disk;
integrating ||T k_w||^p against the Mobius-invariant measure, or summing it
over a hyperbolically separated lattice, measures Schatten membership.
"""

import numpy as np

from schattenframes import (
    bergman_kernel,
    bergman_metric,
    disk_quadrature,
    hs_identity_check,
    integral_criterion,
    kernel_coefficients,
    r_lattice,
    sampling_comparison,
    sampling_frame,
    subharmonicity_check,
)

print("kernel values: K(0,0) =", bergman_kernel(0, 0), " K(1/2,1/2) =", bergman_kernel(0.5, 0.5))
print("hyperbolic distance beta(0, 1/2) =", bergman_metric(0.0, 0.5), "= (1/2) log 3")
print("k_w truncation defect at |w|=0.5, degree 40:",
      1 - np.linalg.norm(kernel_coefficients(0.5, 40)) ** 2)

# Hilbert-Schmidt identity: both kernel integrals recover the squared HS
# norm up to the mass the radial cutoff discards.
t = np.diag([1.0, 0.5, 0.25, 0.125]).astype(complex)
print("\nHS identity for diag(1, 1/2, 1/4, 1/8), refining the cutoff:")
print(f"  {'rmax':>6} {'integral':>12} {'closed form':>12} {'||T||_2^2':>10}")
for rmax in (0.9, 0.99, 0.995, 0.999):
    quad = disk_quadrature(64, 64, rmax)
    rep = hs_identity_check(t, quad)
    print(f"  {rmax:>6} {rep.integral_dlambda:>12.8f} {rep.mode_closed_form:>12.8f}"
          f" {rep.hs_norm_sq:>10.6f}")

# The integrand ||T K_w||^p is subharmonic for every p > 0.
rng = np.random.default_rng(3)
g = (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))) / np.sqrt(2)
print("\nminimum five-point Laplacian of ||T K_w||^p (random T, grid 0.02):")
for p in (0.5, 1.0, 2.0, 3.0):
    rep = subharmonicity_check(g, p, grid_step=0.02, rmax=0.85)
    print(f"  p={p}: min = {rep.min_laplacian:.4e} (tolerance -{rep.tolerance:.2e})")

# Separated lattices: normalized kernels at the points form a frame for the
# truncation, and the lattice sum is controlled by the kernel integral.
lattice = r_lattice(0.4, 0.95)
frame = sampling_frame(lattice, 6)
print(f"\nlattice with separation 0.4 inside |w| <= 0.95: {lattice.points.size} points")
print(f"  sampling frame at degree 6: bounds ({frame.lower_bound:.4f},"
      f" {frame.upper_bound:.4f}), condition {frame.condition:.2f}")
quad = disk_quadrature(64, 64, 0.995)
for p in (1.0, 2.0):
    chain = sampling_comparison(g, p, quad, lattice)
    print(f"  p={p}: lattice sum {chain.lattice_sum:.4f} <= "
          f"{chain.constant:.4f} x integral {chain.integral:.4f}")
print("  (integral via quadrature only; dlambda mass explodes as rmax -> 1:",
      f"{integral_criterion(np.eye(6, dtype=complex), 1.0, quad):.2f} at rmax 0.995)")
