"""Design minimum-variance unbiased tables and inspect what the LP found.

The one-bit design has a closed form (randomized response); the script
designs it numerically, compares, then designs a wider table and saves it in
the mechanism file format.
"""

from pathlib import Path

import numpy as np

from imvu import (
    ClipConfig,
    DesignSpec,
    InterpolatedMechanism,
    design_mvu,
    moments,
    save_mechanism,
    validate_table,
)

eps = np.log(3.0)
print(f"one-bit design at eps = ln 3 = {eps:.5f}")
table = design_mvu(DesignSpec(b_in=2, b_out=2, eps=float(eps)))
print("  alphabet:", np.round(table.alphabet, 6))
print("  probability rows:")
print(np.round(table.probs, 6))

e = np.exp(eps)
print("  closed form alphabet:", np.round([-1 / (e - 1), e / (e - 1)], 6))
print("  closed form keep-probability:", round(e / (1 + e), 6))

print("\nthree-bit design with a four-point grid at eps = 5")
wide = design_mvu(DesignSpec(b_in=4, b_out=8, eps=5.0))
report = validate_table(wide, tol=1e-6)
print("  validation:", {k: f"{v:.2e}" for k, v in report.checks.items()})
mean, var = moments(wide, wide.grid)
print("  means at grid points:", np.round(mean, 6))
print("  variances at grid points:", np.round(var, 4))

mech = InterpolatedMechanism(wide, beta=1.0, clip=ClipConfig("l1", 1.0))
save_mechanism(Path(__file__).with_name("designed_4x8.json"), mech)
print("\nsaved mechanism file -> designed_4x8.json")
