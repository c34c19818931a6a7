"""Output checks for the benchmark workloads.

Each check returns a list of failure messages; an empty list means the
output holds. The references are made apart from the code they check: the
paper's published errors and truncation percentages, a least-squares fit
written here, and a scalar log-space step written here from the paper's
update, with no import of ``sislab.schemes`` or ``sislab.model``.
"""

from __future__ import annotations

import csv
import math
import sys

# Strong errors of example 5.1 at h = 2^-10 .. 2^-6 as published.
PUBLISHED_ERRORS = (0.0006, 0.0013, 0.0026, 0.0051, 0.0103)
ERROR_TOL = 0.30
RATE_RANGE = (0.90, 1.10)

# Dynamics paths recomputed by the scalar step, and the agreement required:
# a relative 1e-9, or BOUND_FACTOR times the rounding bound on Y of
# lcm_terminal_log where the step map has amplified rounding past that.
RECHECK_INDICES = (0, 33, 66, 99)
RECHECK_RTOL = 1e-9
ROUNDING_ULPS = 4
BOUND_FACTOR = 10
MIN_PERSISTENT = 95


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _least_squares_slope(xs, ys):
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    return sxy / sxx


def check_convergence(out_dir):
    rows = _rows(out_dir / "error_table.csv")
    hs = [float(r["h"]) for r in rows]
    errors = [float(r["error"]) for r in rows]
    if hs != [2.0**k for k in range(-10, -5)]:
        return [f"error_table.csv step sizes {hs}, expected 2^-10 .. 2^-6"]
    fails = []
    q = float(_rows(out_dir / "rate_fit.csv")[0]["q"])
    if not RATE_RANGE[0] <= q <= RATE_RANGE[1]:
        fails.append(f"fitted rate q = {q} outside {RATE_RANGE}")
    own_q = _least_squares_slope([math.log(h) for h in hs], [math.log(e) for e in errors])
    if abs(own_q - q) > 1e-9:
        fails.append(f"rate_fit.csv q = {q} but error_table.csv fits {own_q}")
    if any(lo >= hi for lo, hi in zip(errors, errors[1:])):
        fails.append(f"errors do not rise with h: {errors}")
    for h, e, ref in zip(hs, errors, PUBLISHED_ERRORS):
        if abs(e - ref) > ERROR_TOL * ref:
            fails.append(f"error {e} at h = {h} is more than {ERROR_TOL:.0%} from {ref}")
    return fails


def check_truncation(out_dir, n_paths, horizon):
    cells = {}
    fails = []
    for r in _rows(out_dir / "truncation.csv"):
        label, i0, h, pct = int(r["set"]), float(r["I0"]), float(r["h"]), float(r["percent"])
        cells[label, i0, h] = pct
        total = n_paths * round(horizon / h)
        count = pct * total / 100.0
        if not (0.0 <= count <= total and abs(count - round(count)) <= 1e-6):
            fails.append(f"set {label} I0 {i0} h {h}: {pct}% is not a whole count "
                         f"out of {total} steps")
    hs = [2.0**-k for k in range(1, 6)]
    expected = {(s, i0, h) for s in (1, 2, 3, 4) for i0 in (10.0, 50.0, 90.0) for h in hs}
    if set(cells) != expected:
        return fails + [f"truncation.csv has {len(cells)} cells, expected the 60 of "
                        "sets 1-4 x I0 {10, 50, 90} x h 2^-1 .. 2^-5"]
    if any(cells[1, 10.0, h] != 0.0 for h in hs):
        fails.append(f"set 1 at I0 = 10 truncates: {[cells[1, 10.0, h] for h in hs]}")
    for h, ref in zip((2.0**-3, 2.0**-2, 2.0**-1), (49.9986, 50.0, 50.0)):
        if abs(cells[2, 10.0, h] - ref) > 1.0:
            fails.append(f"set 2 at I0 = 10, h = {h}: {cells[2, 10.0, h]} vs {ref} +/- 1")
    if abs(cells[3, 10.0, 0.25] - 19.5684) > 2.0:
        fails.append(f"set 3 at I0 = 10, h = 0.25: {cells[3, 10.0, 0.25]} vs 19.5684 +/- 2")
    rare = max(v for (s, _, _), v in cells.items() if s == 4)
    if not rare < 0.01:
        fails.append(f"set 4 truncates {rare}% somewhere (need < 0.01)")
    return fails


def lcm_terminal_log(model, h, alpha, theta, increments):
    """Y(T) of the truncated log-space Milstein scheme, one scalar step at a time,
    with a first-order bound on how far rounding alone can move it.

    Y' = Y + f(Y) h + g(Y) dW + g g'(Y) (dW^2 - h) / 2 with
    f(y) = beta N - (mu + gamma) - beta e^y - sigma^2 (N - e^y)^2 / 2,
    g(y) = sigma (N - e^y), g g'(y) = -sigma^2 e^y (N - e^y);
    a step landing at or above log N is reset to log N - alpha h^theta.

    At coarse h the step map stretches (|dY'/dY| is about 4 near the
    persistence level at h = 2^-2), so two correct codes that round
    differently drift apart until a truncation resets both to the same
    constant. The bound carries each step's rounding (ROUNDING_ULPS of the
    sum of its terms) forward by |dY'/dY| and clears it at a truncation.
    Returns (Y, bound), or (Y, None) once a step lands within the bound of
    log N, where rounding alone decides whether it truncates.
    """
    n, beta, sigma, mg = model.N, model.beta, model.sigma, model.mu_plus_gamma
    s2 = sigma * sigma
    log_n = math.log(n)
    reset = log_n - alpha * h**theta
    y = math.log(model.I0)
    bound = 0.0
    for dw in increments:
        i = math.exp(y)
        zeta = dw * dw - h
        terms = (y, (beta * n - mg - beta * i - 0.5 * s2 * (n - i) ** 2) * h,
                 sigma * (n - i) * dw, -0.5 * s2 * i * (n - i) * zeta)
        y_bar = sum(terms)
        slope = (1.0 + (s2 * (n - i) - beta) * i * h - sigma * i * dw
                 - 0.5 * s2 * i * (n - 2.0 * i) * zeta)
        bound = abs(slope) * bound + ROUNDING_ULPS * 2.0**-53 * sum(map(abs, terms))
        if abs(y_bar - log_n) <= bound:
            return y_bar, None
        y, bound = (reset, 0.0) if y_bar >= log_n else (y_bar, bound)
    return y, bound


def check_dynamics(out_dir, cfg, seed, generate):
    """``generate`` is ``sislab.paths.generate``, the source of the increments."""
    fails = []
    n_seeds = cfg.n_seeds
    for h, name in ((0.25, "dynamics_2m2.csv"), (0.5, "dynamics_2m1.csv")):
        rows = _rows(out_dir / name)
        if [int(r["seed"]) for r in rows] != list(range(n_seeds)):
            fails.append(f"{name}: rows are not seeds 0 .. {n_seeds - 1}")
            continue
        persistent = sum(r["kind"] == "Persistent" for r in rows)
        if persistent < MIN_PERSISTENT:
            fails.append(f"{name}: {persistent}/{n_seeds} Persistent "
                         f"(need {MIN_PERSISTENT})")
        outside = [r["seed"] for r in rows if not 0.0 < float(r["terminal"]) < cfg.model.N]
        if outside:
            fails.append(f"{name}: terminal value outside (0, N) for seeds {outside}")
        steps = round(cfg.t_final / h)
        for idx in RECHECK_INDICES:
            dw = generate(seed, idx, cfg.t_final, steps).increments
            y, bound = lcm_terminal_log(cfg.model, h, cfg.scheme.alpha, cfg.scheme.theta, dw)
            if bound is None:
                print(f"{name} seed {idx}: rounding decides a truncation; not recomputed",
                      file=sys.stderr)
                continue
            # relative tolerance on exp(Y) is the tolerance on Y itself
            tol_y = max(RECHECK_RTOL, BOUND_FACTOR * bound)
            for col, ref, rtol in (("lyapunov", y / cfg.t_final, tol_y / abs(y)),
                                   ("terminal", math.exp(y), tol_y)):
                got = float(rows[idx][col])
                if not math.isclose(got, ref, rel_tol=max(RECHECK_RTOL, rtol)):
                    fails.append(f"{name} seed {idx}: {col} {got} vs scalar step {ref} "
                                 f"(rounding bound on Y {bound:.2e})")
    return fails


def check_fraction(label, fraction, lo, hi):
    if lo <= fraction <= hi:
        return []
    return [f"{label}: violation fraction {fraction} outside [{lo}, {hi}]"]
