"""Stepping kernels: the truncated log-space Milstein scheme and the
unguarded direct Milstein scheme it is measured against.

The log-space scheme advances Y ~ log I by one Milstein step and, whenever
the raw step lands at or above log N, resets it to log N - alpha h^theta.
That single reset keeps every iterate strictly inside the state domain for
any step size. The direct scheme applies Milstein to I itself with no guard:
it is expected to leave (0, N) and to overflow at coarse steps, and the
bookkeeping here records exactly where that happens instead of hiding it.

Scalar steps and batch evolution share one update expression evaluated on
ndarrays, so a path computed one step at a time is bit-identical to the same
path computed as a row of a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import diffusion_original, drift_original, log_coeffs
from .paths import BrownianGrid, coarsen

__all__ = [
    "LcmBatch",
    "MilsteinBatch",
    "SchemeParams",
    "Trajectory",
    "lcm_evolve",
    "lcm_simulate",
    "lcm_step",
    "milstein_direct_simulate",
    "milstein_direct_step",
    "milstein_evolve",
    "trajectory_to_csv",
]


@dataclass(frozen=True)
class SchemeParams:
    """Step size h, truncation coefficient alpha in (0, 1], exponent theta >= 3/2."""

    h: float
    alpha: float
    theta: float

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError("h must be positive")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if not self.theta >= 1.5:
            raise ValueError("theta must be at least 3/2")


@dataclass
class Trajectory:
    """One simulated path plus the scheme's bookkeeping.

    log_values and truncated are populated by the log-space scheme only; the
    violation/explosion fields by the direct scheme only.
    """

    times: np.ndarray
    values: np.ndarray
    log_values: np.ndarray | None = None
    truncated: np.ndarray | None = None
    truncation_count: int = 0
    domain_violation: bool = False
    violation_index: int | None = None
    explosion_index: int | None = None
    exploded: bool = False


def _lcm_update(y, dw, dz, p, h):
    fy, gy, ggy = log_coeffs(y, p)
    return y + fy * h + gy * dw + ggy * dz


def _milstein_update(i, dw, dz, p, h):
    ai = drift_original(i, p)
    bi = diffusion_original(i, p)
    bpi = p.sigma * (p.N - 2.0 * i)
    return i + ai * h + bi * dw + bi * bpi * dz


def lcm_step(y, dw, dz, p, s):
    """One log-space step from state y. Returns (y_next, truncated)."""
    if not (math.isfinite(y) and math.isfinite(dw) and math.isfinite(dz)):
        raise ValueError("state and increments must be finite")
    log_n = math.log(p.N)
    ybar = float(_lcm_update(np.array([y]), np.array([dw]), np.array([dz]), p, s.h)[0])
    if ybar >= log_n:
        return log_n - s.alpha * s.h**s.theta, True
    return ybar, False


@dataclass
class LcmBatch:
    """Batch evolution output: final states plus optional recordings."""

    y_snaps: np.ndarray | None
    y_final: np.ndarray
    trunc_counts: np.ndarray
    flags: np.ndarray | None


def lcm_evolve(y0, dw, h, p, s, record_stride=None, record_flags=False):
    """Evolve a batch of log-space paths from y0, one start state per row or
    a scalar shared by all rows.

    dw has one row per path and one column per step; dZeta is rebuilt from dw
    internally. With record_stride=r, y_snaps holds every r-th state including
    the initial one; with record_flags=True, flags marks each truncated step.
    A run split at any step and resumed from y_final equals one call bit for
    bit (trunc_counts add up), so callers may feed increments in time blocks.
    Non-finite start states or increments raise ValueError.
    """
    if h != s.h:
        raise ValueError(f"step size {h} disagrees with scheme step {s.h}")
    dw = np.asarray(dw, dtype=np.float64)
    n_paths, steps = dw.shape
    log_n = math.log(p.N)
    reset = log_n - s.alpha * s.h**s.theta

    y = np.full(n_paths, y0, dtype=np.float64)
    if not (np.isfinite(y).all() and np.isfinite(dw).all()):
        raise ValueError("start states and increments must be finite")
    counts = np.zeros(n_paths, dtype=np.int64)
    flags = np.zeros((n_paths, steps), dtype=bool) if record_flags else None
    snaps = None
    if record_stride is not None:
        if steps % record_stride:
            raise ValueError("record_stride must divide the step count")
        snaps = np.empty((n_paths, steps // record_stride + 1))
        snaps[:, 0] = y

    half_h = 0.5 * h
    dw_cols = np.ascontiguousarray(dw.T)  # contiguous per-step slices
    for k in range(steps):
        w = dw_cols[k]
        dz = 0.5 * (w * w) - half_h
        y = _lcm_update(y, w, dz, p, h)
        hit = y >= log_n
        np.copyto(y, reset, where=hit)
        counts += hit
        if flags is not None:
            flags[:, k] = hit
        if snaps is not None and (k + 1) % record_stride == 0:
            snaps[:, (k + 1) // record_stride] = y
    return LcmBatch(y_snaps=snaps, y_final=y, trunc_counts=counts, flags=flags)


def lcm_simulate(inc, p, s):
    """Run the log-space scheme along one path of increments.

    Accepts either a LevyIncrements sequence or a BrownianGrid (used at its
    fine step).
    """
    if isinstance(inc, BrownianGrid):
        inc = coarsen(inc, 0)
    if inc.h != s.h:
        raise ValueError(f"increment step {inc.h} disagrees with scheme step {s.h}")
    out = lcm_evolve(math.log(p.I0), inc.dW[None, :], s.h, p, s,
                     record_stride=1, record_flags=True)
    y = out.y_snaps[0]
    truncated = np.concatenate([[False], out.flags[0]])
    times = np.arange(len(inc) + 1) * inc.h
    return Trajectory(times=times, values=np.exp(y), log_values=y,
                      truncated=truncated,
                      truncation_count=int(out.trunc_counts[0]))


def milstein_direct_step(i, dw, dz, p, h):
    """One unguarded Milstein step on the original state. May leave (0, N)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(_milstein_update(np.array([i]), np.array([dw]),
                                      np.array([dz]), p, h)[0])


@dataclass
class MilsteinBatch:
    """Batch output of the direct scheme; violated/exploded are per-path flags."""

    i_snaps: np.ndarray | None
    i_final: np.ndarray
    violated: np.ndarray
    exploded: np.ndarray


def milstein_evolve(i0, dw, h, p, record_stride=1):
    """Evolve a batch of direct-Milstein paths from i0, one start state per
    row or a scalar shared by all rows.

    A path is flagged violated once it produces a state the dynamics forbids:
    negative, above N, or non-finite. Exactly 0 and exactly N are boundary
    touches, not violations: 0 is a fixed point of the update (extinction can
    underflow to it), and from N the drift steps back inside. Stepping
    continues through finite excursions (they are what the violation
    statistics measure) and freezes a path to NaN from its first non-finite
    state onward; a row that starts at NaN stays frozen. A run split at any
    step and resumed from i_final equals one call bit for bit once the
    violated and exploded flags of its parts are OR-ed together.
    """
    dw = np.asarray(dw, dtype=np.float64)
    n_paths, steps = dw.shape
    I = np.full(n_paths, i0, dtype=np.float64)
    violated = np.zeros(n_paths, dtype=bool)
    dead = ~np.isfinite(I)
    snaps = None
    if record_stride is not None:
        if steps % record_stride:
            raise ValueError("record_stride must divide the step count")
        snaps = np.empty((n_paths, steps // record_stride + 1))
        snaps[:, 0] = I

    half_h = 0.5 * h
    dw_cols = np.ascontiguousarray(dw.T)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            w = dw_cols[k]
            dz = 0.5 * (w * w) - half_h
            nxt = _milstein_update(I, w, dz, p, h)
            dead |= ~np.isfinite(nxt)
            np.copyto(nxt, np.nan, where=dead)
            violated |= ~((nxt >= 0.0) & (nxt <= p.N))  # NaN rows flag too
            I = nxt
            if snaps is not None and (k + 1) % record_stride == 0:
                snaps[:, (k + 1) // record_stride] = I
    return MilsteinBatch(i_snaps=snaps, i_final=I, violated=violated, exploded=dead)


def milstein_direct_simulate(inc, p):
    """Run the direct scheme along one path, recording where it first produces
    a forbidden state (negative, above N, or non-finite; see milstein_evolve)
    and where it stops being finite."""
    m = len(inc.dW)
    values = np.empty(m + 1)
    values[0] = p.I0
    violation_index = None
    explosion_index = None
    i = p.I0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(m):
            i = milstein_direct_step(i, float(inc.dW[k]), float(inc.dZeta[k]),
                                     p, inc.h)
            if not math.isfinite(i):
                explosion_index = k + 1
                values[k + 1:] = np.nan
                if violation_index is None:
                    violation_index = k + 1
                break
            values[k + 1] = i
            if violation_index is None and not 0.0 <= i <= p.N:
                violation_index = k + 1
    times = np.arange(m + 1) * inc.h
    return Trajectory(times=times, values=values,
                      domain_violation=violation_index is not None,
                      violation_index=violation_index,
                      explosion_index=explosion_index,
                      exploded=explosion_index is not None)


def trajectory_to_csv(traj, fh):
    """Write a trajectory as CSV with full round-trip precision."""
    if traj.log_values is not None:
        fh.write("t,I,Y,truncated\n")
        for t, i, y, flag in zip(traj.times, traj.values, traj.log_values,
                                 traj.truncated):
            fh.write(f"{t:.17g},{i:.17g},{y:.17g},{int(flag)}\n")
    else:
        fh.write("t,I\n")
        for t, i in zip(traj.times, traj.values):
            fh.write(f"{t:.17g},{i:.17g}\n")
