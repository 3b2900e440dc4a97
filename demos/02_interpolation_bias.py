"""Compare dithering against natural-parameter interpolation.

Dithering mixes probability rows and is exactly unbiased on [0, 1].
Interpolating the log-probability rows instead keeps the mechanism defined
for every real input, at the cost of a bias that shrinks quickly as the
input grid grows.  This reproduces the qualitative bias/variance picture for
three grid sizes at a shared three-bit budget.
"""

from pathlib import Path

import numpy as np

from imvu import DesignSpec, design_mvu, sweep_bias_variance

EPS = 5.0
tables = [design_mvu(DesignSpec(b_in=b_in, b_out=8, eps=EPS)) for b_in in (2, 4, 8)]
report = sweep_bias_variance(tables)

print(f"three output bits, design eps = {EPS}; Laplace reference variance "
      f"2/eps^2 = {report.laplace_variance:.4f}\n")
print(f"{'b_in':>5} {'max |bias| interp':>18} {'max |bias| dither':>18} "
      f"{'max var interp':>15} {'var / laplace':>14}")
for b_in in (2, 4, 8):
    bias_i = report.max_abs_bias("imvu", b_in)
    bias_m = report.max_abs_bias("mvu", b_in)
    var_i = report.variances("imvu", b_in).max()
    print(f"{b_in:>5} {bias_i:>18.6f} {bias_m:>18.2e} {var_i:>15.4f} "
          f"{var_i / report.laplace_variance:>14.2f}")

print("\nper-x slice at b_in = 8 (every 50th grid point):")
rows = [r for r in report.rows if r.mechanism == "imvu" and r.b_in == 8]
for r in rows[::50]:
    print(f"  x={r.x:.2f}  mean={r.mean:+.4f}  bias={r.bias:+.5f}  var={r.variance:.4f}")

report.to_csv(Path(__file__).with_name("bias_variance_sweep.csv"))
print("\nfull sweep written -> bias_variance_sweep.csv")
