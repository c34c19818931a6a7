"""Acceptance gate: one test per headline capability, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. The convergence studies default to 10^4 coupled paths (per-level error
tolerance 15%); set SIS_LAB_CI_PATHS=1000 for the quick variant, which widens
the per-level tolerance to 30%.

Criterion 6 checks the unguarded baseline at h = 2^-15. At h = 2^-14 one
direct-Milstein step from midrange still leaves [0, N] with probability about
4e-3, and about 3% of the paths exit by T = 5. That is a property of the
Milstein map, not a defect. The violation fractions print as k/n with their
binomial standard error.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from sislab.model import ModelParams, persistence_lambda
from sislab.schemes import SchemeParams, lcm_evolve
from sislab.analysis import (
    dynamics_verdicts,
    fit_rate,
    milstein_violation_fraction,
    strong_error,
    truncation_table,
)

CI_PATHS = os.environ.get("SIS_LAB_CI_PATHS")
N_PATHS = int(CI_PATHS) if CI_PATHS else 10_000
LEVEL_TOL = 0.30 if CI_PATHS else 0.15

P_EXT = ModelParams(N=100, beta=0.42, sigma=0.9, mu_plus_gamma=10.0, I0=90.0)
P_PERS = ModelParams(N=100, beta=0.6, sigma=0.01, mu_plus_gamma=40.0, I0=10.0)

# truncation-frequency parameter sets (N = 100; initial values supplied per run)
SET1 = ModelParams(N=100, beta=0.42, sigma=0.9, mu_plus_gamma=10.0, I0=10.0)
SET2 = ModelParams(N=100, beta=0.42, sigma=0.01, mu_plus_gamma=10.0, I0=10.0)
SET3 = ModelParams(N=100, beta=0.6, sigma=0.01, mu_plus_gamma=40.0, I0=10.0)
SET4 = ModelParams(N=100, beta=0.6, sigma=0.1, mu_plus_gamma=40.0, I0=10.0)

LEVELS = [2.0**-10, 2.0**-9, 2.0**-8, 2.0**-7, 2.0**-6]
H_REF = 2.0**-14

ERRORS_EX1 = (0.0006, 0.0013, 0.0026, 0.0051, 0.0103)
ERRORS_EX2 = (0.0014, 0.0029, 0.0059, 0.0120, 0.0243)


def report(number, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def run_convergence(params, scheme_ref, base_seed):
    table = strong_error(params, scheme_ref, levels=LEVELS, n_paths=N_PATHS,
                         base_seed=base_seed, t_final=1.0)
    return table, fit_rate(table)


def test_criterion_1_strong_order_low_initial_value():
    p = ModelParams(N=10, beta=0.5, sigma=0.2, mu_plus_gamma=4.0, I0=1.0)
    s = SchemeParams(h=H_REF, alpha=0.1, theta=2.0)
    table, fit = run_convergence(p, s, base_seed=101)
    level_ok = all(abs(e - ref) <= LEVEL_TOL * ref
                   for e, ref in zip(table.errors, ERRORS_EX1))
    ok = 0.90 <= fit.q <= 1.10 and level_ok
    report(1, ok, f"q={fit.q:.4f} in [0.90,1.10], errors="
                  f"{['%.5f' % e for e in table.errors]} vs {ERRORS_EX1} "
                  f"(tol {LEVEL_TOL:.0%}, {N_PATHS} paths)")


def test_criterion_2_strong_order_high_initial_value():
    p = ModelParams(N=10, beta=0.7, sigma=0.1, mu_plus_gamma=2.0, I0=9.0)
    s = SchemeParams(h=H_REF, alpha=1.0, theta=3.0)
    table, fit = run_convergence(p, s, base_seed=202)
    level_ok = all(abs(e - ref) <= LEVEL_TOL * ref
                   for e, ref in zip(table.errors, ERRORS_EX2))
    ok = 0.90 <= fit.q <= 1.15 and level_ok
    report(2, ok, f"q={fit.q:.4f} in [0.90,1.15], errors="
                  f"{['%.5f' % e for e in table.errors]} vs {ERRORS_EX2} "
                  f"(tol {LEVEL_TOL:.0%}, {N_PATHS} paths)")


def test_criterion_3_unconditional_domain_preservation():
    rng = np.random.default_rng(20260816)
    draws = 0
    violations = 0
    while draws < 10_000:
        N = float(rng.uniform(2.0, 500.0))
        p = ModelParams(N=N,
                        beta=float(rng.uniform(0.01, 3.0)),
                        sigma=float(rng.uniform(0.001, 2.0)),
                        mu_plus_gamma=float(rng.uniform(0.01, 30.0)),
                        I0=float(rng.uniform(1e-6, 1.0 - 1e-6)) * N)
        h = 2.0 ** -int(rng.integers(0, 11))
        s = SchemeParams(h=h, alpha=float(rng.uniform(0.01, 1.0)),
                         theta=float(rng.uniform(1.5, 3.0)))
        n_paths, steps = 100, 32
        dw = rng.normal(0.0, math.sqrt(h), size=(n_paths, steps))
        out = lcm_evolve(math.log(p.I0), dw, p, s, record=True)
        y = out.y_snaps
        violations += int(np.sum(~np.isfinite(y)) + np.sum(y >= math.log(N)))
        draws += n_paths
    report(3, violations == 0,
           f"{draws} random (params, seed, h) paths, {violations} states outside (0,N)")


def test_criterion_4_extinction_preserved_at_coarse_steps():
    results = []
    for h in (2.0**-4, 2.0**-2, 2.0**-1):
        s = SchemeParams(h=h, alpha=0.1, theta=2.0)
        verdicts = dynamics_verdicts(P_EXT, s, 5.0, 100, base_seed=4001)
        extinct = sum(v.kind == "Extinct" and v.terminal_value < 1e-8 for v in verdicts)
        decay_ok = sum(v.lyapunov_estimate <= -4.9 for v in verdicts)
        results.append((h, extinct, decay_ok))
    ok = all(e >= 95 and d >= 95 for _, e, d in results)
    report(4, ok, "extinct/decay counts per h over 100 seeds: "
                  + ", ".join(f"h=2^{int(math.log2(h))}: {e}/{d}" for h, e, d in results))


def test_criterion_5_persistence_preserved_at_coarse_steps():
    lam = persistence_lambda(P_PERS)
    lam_ok = abs(lam - 32.9588) <= 1e-3
    results = []
    for h in (2.0**-2, 2.0**-1):
        s = SchemeParams(h=h, alpha=0.1, theta=2.0)
        verdicts = dynamics_verdicts(P_PERS, s, 200.0, 100, base_seed=5001)
        persistent = sum(v.kind == "Persistent" and v.lambda_crossings >= 3
                         for v in verdicts)
        results.append((h, persistent))
    ok = lam_ok and all(c >= 95 for _, c in results)
    report(5, ok, f"lambda={lam:.4f} (target 32.9588 +/- 1e-3), persistent counts "
                  + ", ".join(f"h=2^{int(math.log2(h))}: {c}/100" for h, c in results))


def binomial_summary(fraction, n):
    """'k/n = f% +/- se%' for a fraction of n Bernoulli trials."""
    k = round(fraction * n)
    se = math.sqrt(fraction * (1.0 - fraction) / n)
    return f"{k}/{n} = {fraction:.2%} +/- {se:.2%}"


def test_criterion_6_direct_milstein_fails_then_recovers():
    # The fine step is where the one-step exit probability collapses: from the
    # worst state I = 50 it is 4.4e-3 at h = 2^-14 but 5.8e-5 at h = 2^-15
    # (closed form in tools/derive_oracles.py), so over a T = 5 path the
    # recovery shows at 2^-15, not before.
    n_paths = 1000
    coarse = milstein_violation_fraction(P_EXT, h=2.0**-2, t_final=5.0,
                                         n_paths=n_paths, base_seed=606)
    fine = milstein_violation_fraction(P_EXT, h=2.0**-15, t_final=5.0,
                                       n_paths=n_paths, base_seed=606)
    ok = coarse >= 0.50 and fine <= 0.01
    report(6, ok, f"violation fraction {binomial_summary(coarse, n_paths)} at h=2^-2 "
                  f"(need >= 50%), {binomial_summary(fine, n_paths)} at h=2^-15 "
                  f"(need <= 1%)")


def test_criterion_7_truncation_frequency_table():
    kw = dict(n_paths=20_000, horizon=50.0, base_seed=7001)
    t2 = truncation_table([SET2], I0s=[10.0], hs=[2.0**-3, 2.0**-2, 2.0**-1], **kw)
    plateau = t2.percent[0, 0, :]
    plateau_ok = all(abs(p - ref) <= 1.0
                     for p, ref in zip(plateau, (49.9986, 50.0, 50.0)))
    t1 = truncation_table([SET1], I0s=[10.0],
                          hs=[2.0**-5, 2.0**-4, 2.0**-3, 2.0**-2, 2.0**-1], **kw)
    silent_ok = bool(np.all(t1.percent == 0.0))
    t3 = truncation_table([SET3], I0s=[10.0], hs=[2.0**-2], **kw)
    mid = float(t3.percent[0, 0, 0])
    mid_ok = abs(mid - 19.5684) <= 2.0
    t4 = truncation_table([SET4], I0s=[10.0, 50.0, 90.0],
                          hs=[2.0**-5, 2.0**-4, 2.0**-3, 2.0**-2, 2.0**-1], **kw)
    rare_ok = bool(np.all(t4.percent < 0.01))
    ok = plateau_ok and silent_ok and mid_ok and rare_ok
    report(7, ok, f"set2 {[f'{p:.4f}' for p in plateau]} vs (49.9986, 50, 50); "
                  f"set1 max {t1.percent.max():.4f} (need 0); "
                  f"set3 {mid:.4f} vs 19.5684 +/- 2; "
                  f"set4 max {t4.percent.max():.4f} (need < 0.01)")


def test_criterion_8_frozen_oracles_reproduce():
    script = Path(__file__).resolve().parents[1] / "tools" / "derive_oracles.py"
    proc = subprocess.run([sys.executable, str(script)],
                          capture_output=True, text=True, timeout=300)
    digits = (
        "17.758595241601",      # persistence alpha bound
        "32.958789676530",      # persistence level lambda
        "-9.8911111111111",     # strong-noise extinction decay rate
        "1.0175061676754",      # rate fitted to the rounded published errors
        "0.44446054581544",     # third drift-only direct-Milstein iterate
        "0.0044489667724695",   # direct-Milstein one-step exit, I=50, h=2^-14
        "0.000057547410503547", # direct-Milstein one-step exit, I=50, h=2^-15
        "0.0018779205031947",   # direct-Milstein one-step exit, I=65, h=2^-14
    )
    missing = [d for d in digits if d not in proc.stdout]
    ok = proc.returncode == 0 and not missing
    report(8, ok, f"derive_oracles.py exit {proc.returncode}, "
                  f"missing={missing or 'none'}")
