"""Walk through the frame-sum formulas for the Schatten p-norm.

For p >= 2 the sum of ||T f_n||^p over any frame with upper bound <= 1 stays
below ||T||_p^p, and the supremum over such frames attains it.  For p <= 2
the inequality flips: Parseval-frame sums stay above and the infimum attains
it.  The singular-vector basis is extremal in both regimes.
"""

import numpy as np

from schattenframes import (
    canonical_parseval,
    certify_norm_formula,
    make_frame,
    random_frame,
    rescale_upper_bound_one,
    schatten_norm,
    sum_norms,
    svd,
)

rng = np.random.default_rng(0)
t = (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))) / np.sqrt(2)

print("singular values:", np.round(svd(t).singular_values, 4))
for p in (0.5, 1.0, 2.0, 4.0):
    print(f"||T||_{p} = {schatten_norm(t, p):.6f}")

# The right-singular basis turns the norm formula into an exact identity.
basis = make_frame(svd(t).right_vectors)
for p in (0.5, 1.0, 2.0, 4.0):
    via_sum = sum_norms(t, basis, p)
    print(f"p={p}: singular-basis sum {via_sum:.10f}  vs  norm^p {schatten_norm(t, p)**p:.10f}")

# Sampled frames respect the regime direction.
print("\nsampled frame sums (30 frames per regime):")
for p, regime in ((4.0, "upper bound <= 1, sums below"), (1.0, "Parseval, sums above")):
    target = schatten_norm(t, p) ** p
    extremes = []
    for seed in range(30):
        frame = random_frame(5, 7, 100.0, seed)
        frame = rescale_upper_bound_one(frame) if p >= 2 else canonical_parseval(frame)
        extremes.append(sum_norms(t, frame, p))
    print(f"  p={p} ({regime}): norm^p = {target:.4f},")
    print(f"    sampled range [{min(extremes):.4f}, {max(extremes):.4f}]")

# The certificate wraps sampling plus the exact witness into one verdict.
for p in (0.5, 3.0):
    cert = certify_norm_formula(t, p, trials=50, seed=1)
    print(
        f"\ncertificate p={p}: direction={cert.direction}, "
        f"extremal={cert.extremal_value:.6f}, norm^p={cert.norm_value:.6f}, "
        f"witness equality={cert.equality_witness}, passed={cert.passed}"
    )
