"""The constructions that make the p = 2 cutoff sharp.

Each construction is truncated to finite dimension and classified by its
partial-sum growth over the truncation grid 10^2 .. 10^5: a divergent
infinite series shows up as a `divergent_trend` verdict, a convergent one
as `bounded_trend`.
"""

import numpy as np

from schattenframes import (
    divergence_demo_double_sum,
    divergence_demo_sum_norms,
    log_weight_norm_series,
    make_frame,
    scaled_copies_frame,
    schatten_norm,
    sum_diag,
    truncated_shift,
)

GRID = (100, 1_000, 10_000, 100_000)


def show(series, label):
    sums = ", ".join(f"{s:.4f}" for s in series.partial_sums)
    print(f"  {label}: [{sums}] -> {series.verdict}")


# A rank-one operator whose basis norm sums diverge for every p < 2.
print("rank-one log-weight operator, sum ||T e_n||^p over the basis:")
for p in (0.5, 1.0, 1.5, 1.9):
    show(divergence_demo_sum_norms(p, GRID), f"p={p}")
print("convergent p=2 control, sum 1/(n log^2(n+1)):")
show(log_weight_norm_series(GRID), "p=2")

# A frame of repeated scaled basis vectors tames a sequence that is only
# (p+eps)-summable: the frame sum tracks the convergent (p+eps)-series.
built = scaled_copies_frame(p=3.0, epsilon=3.0, n_terms=24)
lhs, rhs = built.power_sum_identity()
print("\nscaled-copies frame (p=3, eps=3, values n^(-1/3)):")
print(f"  counts x scales^2 range: [{(built.counts * built.scales**2).min():.12f},"
      f" {(built.counts * built.scales**2).max():.12f}]")
print(f"  rebalancing identity: {lhs:.12f} == {rhs:.12f}")
print(f"  frame bounds: {built.frame.bounds}")

# Diagonal sums carry no norm information without positivity: the shift.
d = 8
shift = truncated_shift(d)
basis = make_frame(np.eye(d))
print(f"\ntruncated shift, d={d}:")
print(f"  sum |<T e_n, e_n>|^p = {sum_diag(shift, basis, 1.0)} for every p")
print(f"  but ||T||_1 = {schatten_norm(shift, 1.0):.1f} (d-1 unit singular values)")

# Bounded Schatten norms with divergent entrywise double sums.
demo = divergence_demo_double_sum(32, 1.0, GRID)
print("\ngeometric-value operator with a heavy-tailed first row (p=1):")
show(demo.norm_series, "norm partial sums")
show(demo.double_series, "entry double sums")
