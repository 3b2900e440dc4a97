"""Walk through both accounting routes on a one-bit mechanism.

The L1 route certifies a per-unit max-divergence rate eps + eps', where eps'
corrects for the log-partition drift of interpolation.  The L2 route
certifies the Fisher-information supremum M and charges alpha * M * C^2 / 2
per round in RDP, converted to (eps, delta)-DP at the end; ``fisher_sup``
takes the two-row anadromic table itself.  Both constants are certified
upper bounds, so they bound every exact divergence; the script verifies
that against the brute-force oracles.
"""

import numpy as np

from imvu import (
    ClipConfig,
    DesignSpec,
    InterpolatedMechanism,
    attach_accounting,
    compose,
    design_mvu,
    exact_max_divergence,
    exact_renyi,
    fisher_sup,
    imvu_ledger,
    pmf,
    rdp_to_dp,
)

eps = float(np.log(3.0))
table = design_mvu(DesignSpec(2, 2, eps))
mech = attach_accounting(InterpolatedMechanism(table, beta=1.0, clip=ClipConfig("l1", 1.0)))

print(f"design eps = ln 3 = {eps:.5f}")
print(f"certified eps' = {mech.eps_prime:.6f} (supremum ln3/2 = {np.log(3)/2:.6f}, "
      "from the interval endpoints plus a rounding pad)")

rate = table.design_eps + mech.eps_prime
rng = np.random.default_rng(0)
worst = -np.inf
for _ in range(2000):
    x, xp = rng.uniform(0, 1, 2)
    d = exact_max_divergence(pmf(table, x), pmf(table, xp))
    worst = max(worst, d - rate * abs(x - xp))
print(f"largest (divergence - bound) over 2000 random pairs: {worst:.2e} (<= 0 is sound)")

ledger = imvu_ledger(mech, "pure", sens=1.0)
print(f"pure route: per round {ledger.per_round:.5f}, after 50 rounds {compose(ledger, 50):.3f}\n")

m_value, diag = fisher_sup(table)
print(f"Fisher supremum M = {m_value:.6f} "
      f"(stationary value {diag.i_star:.6f}, search bound x_max = {diag.x_max:.3f})")
d2 = exact_renyi(pmf(table, 0.5), pmf(table, 0.6), 2.0)
bound = float(imvu_ledger(mech, "rdp", sens=0.1, alphas=[2.0]).per_round[0])
print(f"exact order-2 divergence x: 0.5 -> 0.6 is {d2:.7f} <= bound {bound:.7f}")

alphas = (1.5, 2.0, 4.0, 8.0, 16.0, 32.0)
ledger = imvu_ledger(mech, "rdp", sens=0.25, delta=1e-5, alphas=alphas)
eps_dp, alpha_star = rdp_to_dp(compose(ledger, 500), delta=1e-5, alphas=alphas)
print(f"rdp route: 500 rounds at sensitivity 0.25 -> eps = {eps_dp:.3f} "
      f"at delta = 1e-5 (best order alpha = {alpha_star})")
