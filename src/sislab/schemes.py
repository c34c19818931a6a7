"""Stepping kernels: the truncated log-space Milstein scheme and the
unguarded direct Milstein scheme it is measured against.

The log-space scheme advances Y ~ log I by one Milstein step and, whenever
the raw step lands at or above log N, resets it to log N - alpha h^theta
(or to the double just below log N, where that shift rounds away). That
single reset keeps every iterate Y finite and strictly below log N for any
step size. The direct scheme applies Milstein to I itself with no guard: it
is expected to leave (0, N) and to overflow at coarse steps, and the
bookkeeping here records exactly where that happens instead of hiding it.

Each scheme has one batch kernel, lcm_evolve and milstein_evolve. The
single-path functions lcm_simulate and milstein_direct_simulate are 1-row
views of it, so a path run alone is bit-identical to the same path run as a
row of a batch. Both kernels step in place (every operation of a step writes
into a preallocated row) on one tile walker, which rebuilds dZeta =
(dW^2 - h) / 2 from dW once per tile of steps and, with record=True, steps
straight into one step-major array of every state. lcm_evolve steps at the
scheme's h and takes one ModelParams per group of rows, so many parameter
sets step on shared increments in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams
from .model import log_coeffs  # noqa: F401  perfbench/spans.py wraps it here
from .paths import BrownianGrid, coarsen

__all__ = [
    "LcmBatch",
    "MilsteinBatch",
    "SchemeParams",
    "Trajectory",
    "lcm_evolve",
    "lcm_simulate",
    "milstein_direct_simulate",
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
        try:
            shift = self.alpha * self.h**self.theta
        except OverflowError:
            shift = math.inf
        if not math.isfinite(shift):
            raise ValueError(f"h = {self.h!r} is too large: alpha h^theta overflows")


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


@dataclass
class LcmBatch:
    """Batch evolution output: final states plus optional recordings, which
    are transposed views of step-major arrays and so not C-contiguous."""

    y_snaps: np.ndarray | None
    y_final: np.ndarray
    trunc_counts: np.ndarray
    flags: np.ndarray | None


_TILE_DOUBLES = 1 << 16  # doubles in each of a kernel's tile buffers
_STEP_RTOL = 1e-9  # relative gap within which a grid step counts as the step h


def _tile_steps(n_rows, steps):
    """Steps per tile: _TILE_DOUBLES over the row count, at least one."""
    return max(1, min(steps, _TILE_DOUBLES // max(n_rows, 1)))


def _walk_tiles(start, dw, h, groups, record, step_tile):
    """Step start's rows (row g W + r reads row r of dw) tile by tile.

    step_tile(k, states, w, z) steps one tile: w and z hold its dW and dZeta
    = (dW^2 - h) / 2, one row per step, and it writes the state after row j's
    step into states[j + 1] from states[0], which is row k of a buffer of every
    state with record (k is the tile's first step), else of one tile (k = 0).
    Returns that recording transposed (None unless record) and final states.
    """
    width, steps = dw.shape
    n_rows = len(start)
    tile = _tile_steps(n_rows, steps)
    states = np.empty((steps + 1 if record else tile + 1, n_rows))
    states[0] = start
    w_tile, z_tile = np.empty((2, tile, n_rows))
    for k0 in range(0, steps, tile):
        n = min(tile, steps - k0)
        w, z = w_tile[:n], z_tile[:n]
        # every group reads the same increments
        np.copyto(w.reshape(n, groups, width), dw[:, k0:k0 + n].T[:, None, :])
        np.multiply(w, w, z)
        z *= 0.5
        z -= 0.5 * h
        k = k0 if record else 0
        step_tile(k, states[k:k + n + 1], w, z)
        if not record:
            states[0] = states[n]
    return (states.T if record else None), states[-1 if record else 0].copy()


def lcm_evolve(y0, dw, p, s, record=False):
    """Evolve a batch of log-space paths from y0, one start state per row or
    a scalar shared by all rows, at the scheme's step s.h.

    p is one ModelParams or a sequence of G of them. dw has one row per
    increment path and one column per step, and every group runs on all of
    it: row g W + r of the batch uses p[g] and row r of dw, so y0, y_final,
    trunc_counts and the recordings have G W rows (G = 1 for one ModelParams).
    dZeta = (dW^2 - h) / 2 is rebuilt from dw internally. With record=True,
    y_snaps holds every state from the initial one and flags each truncated
    step, as transposed views of step-major arrays (not C-contiguous);
    otherwise both are None.
    A run split at any step and resumed from y_final equals one call bit for
    bit (trunc_counts add up), so callers may feed increments in time blocks.
    Non-finite start states or increments raise ValueError.

    Each step is np.exp plus log_coeffs' operations, in its order and
    grouping, and the Milstein update ((y + f h) + g dW) + g g' dZeta, each a
    ufunc call writing into a preallocated row; the truncation counts are
    formed once per tile of steps.
    """
    dw = np.asarray(dw, dtype=np.float64)
    width, steps = dw.shape
    groups = [p] if isinstance(p, ModelParams) else list(p)
    n_rows = len(groups) * width
    start = np.full(n_rows, y0, dtype=np.float64)
    if not (np.isfinite(start).all() and np.isfinite(dw).all()):
        raise ValueError("start states and increments must be finite")
    counts = np.zeros(n_rows, dtype=np.int64)

    table = []
    for q in groups:
        log_n = math.log(q.N)
        s2 = q.sigma * q.sigma
        table.append((
            log_n,
            # at fine h, alpha h^theta can be under half an ulp of log N (from
            # h = 2^-24 at N = 100, alpha = 0.1, theta = 2): never reset onto log N
            min(log_n - s.alpha * s.h**s.theta, math.nextafter(log_n, -math.inf)),
            # log_coeffs' constants, formed as it forms them
            -0.5 * s2, s2 * q.N - q.beta,
            q.beta * q.N - q.mu_plus_gamma - 0.5 * s2 * q.N * q.N,
            q.N, q.sigma, -s2, s.h))
    # each constant is a full row, as a Python-float or broadcast operand
    # costs more per call
    log_n, reset, a1, a2, c0, big_n, sigma, neg_s2, step = np.repeat(
        np.array(table, dtype=np.float64).reshape(-1, 9).T, width, axis=1)
    ex, fy, gy, ggy, n_ex = np.empty((5, n_rows))
    hit_rows = np.empty((steps if record else _tile_steps(n_rows, steps), n_rows), bool)
    # ufuncs with the output as third argument, cheaper to call than out=
    exp, mul, add, sub, ge = np.exp, np.multiply, np.add, np.subtract, np.greater_equal

    def step_tile(k, states, w, z):
        hits = hit_rows[k:k + len(w)]
        for y, nxt, dw_k, dz_k, hit in zip(states, states[1:], w, z, hits):
            # log_coeffs: f = (-s2/2 e^y + (s2 N - beta)) e^y + c0,
            # g = sigma (N - e^y), g g' = -s2 e^y (N - e^y)
            exp(y, ex)
            mul(a1, ex, fy)
            add(fy, a2, fy)
            mul(fy, ex, fy)
            add(fy, c0, fy)
            sub(big_n, ex, n_ex)
            mul(sigma, n_ex, gy)
            mul(neg_s2, ex, ggy)
            mul(ggy, n_ex, ggy)
            # y + f h + g dW + g g' dZeta, reset at or above log N
            mul(fy, step, fy)
            add(y, fy, nxt)
            mul(gy, dw_k, gy)
            add(nxt, gy, nxt)
            mul(ggy, dz_k, ggy)
            add(nxt, ggy, nxt)
            ge(nxt, log_n, hit)
            np.copyto(nxt, reset, where=hit)
        counts[...] += hits.sum(axis=0)

    snaps, final = _walk_tiles(start, dw, s.h, len(groups), record, step_tile)
    return LcmBatch(y_snaps=snaps, y_final=final, trunc_counts=counts,
                    flags=hit_rows.T if record else None)


def lcm_simulate(inc, p, s):
    """Run the log-space scheme along one path of increments.

    Accepts a LevyIncrements or a BrownianGrid (used at its fine step).
    """
    if isinstance(inc, BrownianGrid):
        inc = coarsen(inc, 0)
    if not math.isclose(inc.h, s.h, rel_tol=_STEP_RTOL):
        raise ValueError(f"increment step {inc.h} disagrees with scheme step {s.h}")
    out = lcm_evolve(math.log(p.I0), inc.dW[None, :], p, s, record=True)
    y = out.y_snaps[0]
    return Trajectory(times=np.arange(len(y)) * inc.h, values=np.exp(y), log_values=y,
                      truncated=np.concatenate([[False], out.flags[0]]),
                      truncation_count=int(out.trunc_counts[0]))


@dataclass
class MilsteinBatch:
    """Batch output of the direct scheme; violated/exploded are per-path flags."""

    i_snaps: np.ndarray | None
    i_final: np.ndarray
    violated: np.ndarray
    exploded: np.ndarray


def milstein_evolve(i0, dw, h, p, record=False):
    """Evolve a batch of direct-Milstein paths from i0, one start state per
    row or a scalar shared by all rows. With record=True, i_snaps holds every
    state including the initial one, as a transposed view of a step-major
    array (not C-contiguous); otherwise it is None.

    A path is flagged violated once it produces a state the dynamics forbids:
    negative, above N, or non-finite. Exactly 0 and exactly N are boundary
    touches, not violations: 0 is a fixed point of the update (extinction can
    underflow to it), and from N the drift steps back inside. Stepping
    continues through finite excursions (they are what the violation
    statistics measure) and freezes a path to NaN from its first non-finite
    state onward; a row that starts at NaN stays frozen. A run split at any
    step and resumed from i_final equals one call bit for bit once the
    violated and exploded flags of its parts are OR-ed together.

    Each step is 16 in-place binary operations, in the order of
    drift_original and diffusion_original; dZeta, the domain check and the
    NaN freeze run once per tile of steps. The freeze may wait because no
    sum, difference or product of a non-finite operand is finite.
    """
    dw = np.asarray(dw, dtype=np.float64)
    n_paths = len(dw)
    violated = np.zeros(n_paths, dtype=bool)
    ai, bi, tmp = np.empty((3, n_paths))
    # c = beta N - (mu + gamma), formed as drift_original forms it; each
    # constant is a full row, as a Python-float operand costs more per call
    beta, c, sigma, big_n, two, step = (
        np.full(n_paths, v, dtype=np.float64)
        for v in (p.beta, p.beta * p.N - p.mu_plus_gamma, p.sigma, p.N, 2.0, h))
    # ufuncs with the output as third argument, cheaper to call than out=
    mul, sub, add = np.multiply, np.subtract, np.add

    def step_tile(k, states, w, z):
        new = states[1:]
        for I, nxt, dw_k, dz_k in zip(states, new, w, z):
            # a = I (c - beta I), b = sigma I (N - I), b' = sigma (N - 2 I);
            # I + a h + b dW + b b' dZeta
            mul(beta, I, ai)
            sub(c, ai, ai)
            mul(I, ai, ai)
            mul(sigma, I, bi)
            sub(big_n, I, tmp)
            mul(bi, tmp, bi)
            mul(two, I, tmp)
            sub(big_n, tmp, tmp)
            mul(sigma, tmp, tmp)
            mul(ai, step, ai)
            add(I, ai, nxt)
            mul(bi, dw_k, ai)
            add(nxt, ai, nxt)
            mul(bi, tmp, bi)
            mul(bi, dz_k, bi)
            add(nxt, bi, nxt)
        violated[...] |= ~((new >= 0.0) & (new <= p.N)).all(axis=0)  # NaN flags too
        np.copyto(new, np.nan, where=~np.isfinite(new))

    with np.errstate(over="ignore", invalid="ignore"):
        snaps, i_final = _walk_tiles(np.full(n_paths, i0, dtype=np.float64), dw, h,
                                     1, record, step_tile)
    return MilsteinBatch(i_snaps=snaps, i_final=i_final, violated=violated,
                         exploded=~np.isfinite(i_final))


def milstein_direct_simulate(inc, p):
    """Run the direct scheme along one path, recording where it first produces
    a forbidden state (negative, above N, or non-finite; see milstein_evolve)
    and where it stops being finite. A 1-row view of milstein_evolve, which
    rebuilds dZeta from inc.dW.
    """
    values = milstein_evolve(p.I0, inc.dW[None, :], inc.h, p, record=True).i_snaps[0]
    outside = np.flatnonzero(~((values >= 0.0) & (values <= p.N)))
    blown = np.flatnonzero(~np.isfinite(values))
    violation_index = int(outside[0]) if outside.size else None
    explosion_index = int(blown[0]) if blown.size else None
    times = np.arange(len(values)) * inc.h
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
