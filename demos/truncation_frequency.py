"""How often does the log-space scheme actually truncate?

The reset to log(N) - alpha * h^theta is the scheme's safety valve, and its
firing rate is a bias indicator worth watching. The frequency depends sharply
on the parameter regime: near-boundary persistence keeps hitting it at coarse
steps, strong-noise extinction essentially never does.

Run from the repo root: python3 demos/truncation_frequency.py
"""

from sislab.analysis import truncation_table
from sislab.model import ModelParams

# same ingredients as two rows of the config-driven table, fewer paths
SETS = [
    ModelParams(N=100, beta=0.42, sigma=0.9, mu_plus_gamma=10.0, I0=10.0),
    ModelParams(N=100, beta=0.42, sigma=0.01, mu_plus_gamma=10.0, I0=10.0),
]
HS = (0.25, 0.125, 0.0625)

tbl = truncation_table(SETS, I0s=(10.0, 90.0), hs=HS, n_paths=2000,
                       horizon=50.0, base_seed=7001,
                       alpha=0.1, theta=2.0, labels=("strong noise",
                                                     "weak noise"))

print(f"{'set':>12} {'I0':>4} " + " ".join(f"h={h:<7g}" for h in tbl.hs))
for si, label in enumerate(tbl.labels):
    for ii, i0 in enumerate(tbl.I0s):
        cells = " ".join(f"{tbl.percent[si, ii, hi]:9.4f}"
                         for hi in range(len(tbl.hs)))
        print(f"{label:>12} {i0:4.0f} {cells}")
print("\n(per-step truncation percentage over 2000 paths, horizon 50)")
