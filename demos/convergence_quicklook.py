"""Coupled-path strong error over a few step sizes, with the fitted rate.

A reduced-path version of the convergence experiment (the config-driven run
uses 10^4 paths and five levels). Even at 500 paths the order-one slope is
plain to see.

Run from the repo root: python3 demos/convergence_quicklook.py
"""

from sislab.analysis import fit_rate, strong_error
from sislab.model import ModelParams
from sislab.schemes import SchemeParams

p = ModelParams(N=10, beta=0.5, sigma=0.2, mu_plus_gamma=4.0, I0=1.0)
s_ref = SchemeParams(h=2.0**-12, alpha=0.1, theta=2.0)

table = strong_error(p, s_ref, levels=[2.0**-8, 2.0**-7, 2.0**-6, 2.0**-5],
                     n_paths=500, base_seed=101, t_final=1.0)

print("      h        error    ratio to previous")
prev = None
for h, e in zip(table.step_sizes, table.errors):
    ratio = "" if prev is None else f"{e / prev:.2f}"
    print(f"  {h:10.6f}  {e:.6f}   {ratio}")
    prev = e

fit = fit_rate(table)
print(f"\nleast-squares rate q = {fit.q:.3f} (residual {fit.residual:.2e});"
      " doubling h should double the error at order one")
