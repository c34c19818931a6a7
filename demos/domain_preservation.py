"""Side-by-side at a deliberately coarse step size: the truncated log-space
scheme stays inside (0, N) no matter what, while the unguarded direct scheme
leaves the interval almost immediately in the strong-noise regime.

Run from the repo root: python3 demos/domain_preservation.py
"""

import math

import numpy as np

from sislab.model import ModelParams
from sislab.paths import PathStreams
from sislab.schemes import SchemeParams, lcm_evolve, milstein_evolve

p = ModelParams(N=100, beta=0.42, sigma=0.9, mu_plus_gamma=10.0, I0=90.0)
s = SchemeParams(h=0.25, alpha=0.1, theta=2.0)

log_n = np.log(p.N)

# five paths of 20 steps, one row each, stepped by both schemes as one batch
dw = PathStreams(base_seed=4001, lo=0, hi=5).increments(20, s.h)
times = np.arange(21) * s.h
lcm = lcm_evolve(math.log(p.I0), dw, p, s, record=True)
mil = milstein_evolve(p.I0, dw, s.h, p, record=True).i_snaps

# the log state is the honest domain witness: finite means I > 0 even
# after the I-representation underflows during extinction
assert np.all(np.isfinite(lcm.y_snaps) & (lcm.y_snaps < log_n))
for seed, (y, count, i) in enumerate(zip(lcm.y_snaps, lcm.trunc_counts, mil)):
    line = (f"seed {seed}:  lcm max I = {np.exp(y).max():7.3f},"
            f" min log I = {y.min():9.1f},"
            f" truncations={count}")
    outside = np.flatnonzero(~((i >= 0.0) & (i <= p.N)))  # NaN counts as outside
    if outside.size:
        k = outside[0]
        line += f"  | milstein leaves [0,N] at t={times[k]:.2f} (I={i[k]:.3g})"
    blown = np.flatnonzero(~np.isfinite(i))
    if blown.size:
        line += f", non-finite from t={times[blown[0]]:.2f}"
    print(line)

# the guarantee is unconditional: crank the step size up to h = 1 and the
# iterates still live strictly inside (0, N)
s1 = SchemeParams(h=1.0, alpha=0.1, theta=2.0)
dw = PathStreams(base_seed=77, lo=0, hi=200).increments(5, s1.h)
y = lcm_evolve(math.log(p.I0), dw, p, s1, record=True).y_snaps
assert np.all(np.isfinite(y) & (y < log_n))
print(f"\nh=1.0, 200 paths: every state in (0, 100), largest seen {np.exp(y).max():.4f}")
