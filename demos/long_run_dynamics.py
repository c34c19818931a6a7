"""Long-run behaviour of the scheme in the two analysable regimes.

Strong noise pushes the stochastic reproduction number below one and every
path dies out at an exponential rate; weak noise with R0 > 1 keeps paths
oscillating around the persistence level lambda forever. The classifier
turns each path into a verdict plus the evidence for it.

Run from the repo root: python3 demos/long_run_dynamics.py
"""

from sislab.analysis import dynamics_verdicts
from sislab.model import ModelParams, regime_report
from sislab.schemes import SchemeParams

CASES = [
    ("extinction", 5.0,
     ModelParams(N=100, beta=0.42, sigma=0.9, mu_plus_gamma=10.0, I0=90.0)),
    ("persistence", 200.0,
     ModelParams(N=100, beta=0.6, sigma=0.01, mu_plus_gamma=40.0, I0=10.0)),
]

for name, t_final, p in CASES:
    rep = regime_report(p)
    print(f"--- {name}: R0_sigma = {rep.r0_stochastic:.4f}", end="")
    if rep.f_max_sigma is not None:
        print(f", decay bound f_max = {rep.f_max_sigma:.4f}")
    else:
        print(f", level lambda = {rep.persistence_lambda:.4f}")

    s = SchemeParams(h=0.25, alpha=0.1, theta=2.0)
    for seed, v in enumerate(dynamics_verdicts(p, s, t_final, 4, base_seed=11)):
        print(f"  seed {seed}: {v.kind:10s} lyapunov={v.lyapunov_estimate:10.3f}"
              f"  crossings={v.lambda_crossings:3d}"
              f"  I(T)={v.terminal_value:.3e}")
