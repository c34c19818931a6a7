"""Stepping kernels: the truncated log-space Milstein scheme and the
unguarded direct Milstein scheme it is measured against.

The log-space scheme advances Y ~ log I by one Milstein step and, whenever
the raw step lands at or above log N, resets it to log N - alpha h^theta
(or to the double just below log N, where that shift rounds away). That
single reset keeps every iterate Y finite and strictly below log N for any
step size. The direct scheme applies Milstein to I itself with no guard: it
is expected to leave (0, N) and to overflow at coarse steps, and the
bookkeeping here records exactly where that happens instead of hiding it.

Each scheme has one batch kernel, lcm_evolve and milstein_evolve; the
single-path lcm_simulate is a 1-row view of the first, so a path run alone
is bit-identical to the same path run as a row of a batch. Both kernels step
in place (every operation of a step writes into a preallocated row) on one
tile walker. Once per tile of steps it transposes dW to step-major order in
slabs of 64 or more paths and rebuilds dZeta = (dW^2 - h) / 2, so that each
step reads its h, dW and dZeta as one contiguous 3-row operand; with
record=True the kernels step straight into one step-major array of every
state. lcm_evolve steps at the scheme's h, with the constants log_coeffs and
the regime thresholds read, and takes one ModelParams per group of rows, so
many parameter sets step on shared increments in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, PreconditionError, _log_constants
from .model import log_coeffs  # noqa: F401  perfbench/spans.py wraps it here
from .paths import BrownianGrid, coarsen

__all__ = [
    "LcmBatch",
    "MilsteinBatch",
    "SchemeParams",
    "Trajectory",
    "lcm_evolve",
    "lcm_simulate",
    "milstein_evolve",
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
    """One simulated path: times and I, and the log-space scheme's Y = log I."""

    times: np.ndarray
    values: np.ndarray
    log_values: np.ndarray
    truncated: np.ndarray | None = None
    truncation_count: int = 0


@dataclass
class LcmBatch:
    """Batch evolution output: final states plus optional recordings, which
    are transposed views of step-major arrays and so not C-contiguous."""

    y_snaps: np.ndarray | None
    y_final: np.ndarray
    trunc_counts: np.ndarray
    flags: np.ndarray | None


# Rows x steps of one tile. A tile holds three doubles per row-step, its h,
# dW and dZeta operands, and at most one more, dW's step-major copy: 4 x 2^15
# doubles (1 MiB) in all.
_TILE_DOUBLES = 1 << 15
# Doubles of dw per transposing copy, in at least 64 paths: 64 paths of a
# 32-step tile, more paths of a shorter one. In one strided copy, a tile of a
# 512 x 4,096 block cost 12-16 ns per element (2-core x86-64), in 64-path
# copies 1.8-1.9 ns; 4-step tiles of 8,192 paths cost 16 ns in 64-path copies
# and 8.2 in 512-path ones.
_SLAB_DOUBLES = 1 << 11
_STEP_RTOL = 1e-9  # relative gap within which a grid step counts as the step h


def _tile_steps(n_rows, steps):
    """Steps per tile: _TILE_DOUBLES over the row count, at least one."""
    return max(1, min(steps, _TILE_DOUBLES // max(n_rows, 1)))


def _step_rows(cache, record, *tiles):
    """The rows of tiles step by step, zipped. Without record every tile is a
    prefix of the same buffers, so the first tile's rows are kept in cache."""
    if record:
        return zip(*tiles)
    if not cache:
        cache[:] = zip(*tiles)
    return cache[:len(tiles[-1])]


def _walk_tiles(start, dw, h, groups, record, step_tile):
    """Step start's rows (row g W + r reads row r of dw) tile by tile.

    step_tile(k, states, m) steps one tile: m[j] holds step j's h, dW and
    dZeta = (dW^2 - h) / 2 as three contiguous rows, and it writes the state
    after step j into states[j + 1] from states[0], which is row k of a buffer
    of every state with record (k is the tile's first step), else of one tile
    (k = 0). m, and states without record, are prefixes of the same buffers
    on every tile.
    Returns that recording transposed (None unless record) and final states.
    """
    width, steps = dw.shape
    n_rows = len(start)
    tile = _tile_steps(n_rows, steps)
    states = np.empty((steps + 1 if record else tile + 1, n_rows))
    states[0] = start
    # one block for both, mapped and returned to the system as one: as two,
    # the smaller could stay resident on the heap once freed (violation's
    # in-process run held 0.16 MB more after its call)
    buf = np.empty(tile * (3 * n_rows + width))
    hwz = buf[:3 * tile * n_rows].reshape(tile, 3, n_rows)
    hwz[:, 0] = h
    w_tile = buf[3 * tile * n_rows:].reshape(tile, width)
    for k0 in range(0, steps, tile):
        n = min(tile, steps - k0)
        w, m = w_tile[:n], hwz[:n]
        slab = max(64, _SLAB_DOUBLES // n)
        for r0 in range(0, width, slab):
            np.copyto(w[:, r0:r0 + slab], dw[r0:r0 + slab, k0:k0 + n].T)
        # every group reads the same increments
        np.copyto(m[:, 1].reshape(n, groups, width), w[:, None])
        np.multiply(w, w, w)  # dZeta, in place of dW, on contiguous rows
        w *= 0.5
        w -= 0.5 * h
        np.copyto(m[:, 2].reshape(n, groups, width), w[:, None])
        k = k0 if record else 0
        step_tile(k, states[k:k + n + 1], m)
        if not record:
            states[0] = states[n]
    return (states.T if record else None), states[-1 if record else 0].copy()


def lcm_evolve(y0, dw, p, s, record=False, steps_done=0):
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
    Non-finite start states or increments raise ValueError, and a state that
    leaves float64 raises PreconditionError naming its row and step, counted
    from the start of the run: steps_done is the steps the run took before
    this call.

    Each step is np.exp plus log_coeffs' operations, in its order and
    grouping, and the Milstein update ((y + f h) + g dW) + g g' dZeta, each a
    ufunc call writing into a preallocated row, with a1 e^y and sigma (N - e^y)
    formed in one call and f h, g dW and g g' dZeta in another; the truncation
    counts are formed once per tile of steps.
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
        table.append((
            log_n,
            # at fine h, alpha h^theta can be under half an ulp of log N (from
            # h = 2^-24 at N = 100, alpha = 0.1, theta = 2): never reset onto log N
            min(log_n - s.alpha * s.h**s.theta, math.nextafter(log_n, -math.inf)),
            *_log_constants(q)))
    # each constant is a full row, as a Python-float or broadcast operand
    # costs more per call
    consts = np.repeat(np.array(table, dtype=np.float64).reshape(-1, 8).T, width, axis=1)
    log_n, reset, _, _, a2, c0, big_n, neg_s2 = consts
    a1_sigma = consts[2:4]  # one operand, against en
    en = np.empty((2, n_rows))  # e^y and N - e^y
    fgg = np.empty((3, n_rows))  # f, g and g g', then f h, g dW and g g' dZeta
    (ex, n_ex), (fy, gy, ggy), fg = en, fgg, fgg[:2]
    hit_rows = np.empty((steps if record else _tile_steps(n_rows, steps), n_rows), bool)
    # ufuncs with the output as third argument, cheaper to call than out=
    exp, mul, add, sub, ge = np.exp, np.multiply, np.add, np.subtract, np.greater_equal
    done = [steps_done]  # steps of the run before this tile
    views = []

    def step_tile(k, states, m):
        hits = hit_rows[k:k + len(m)]
        for y, nxt, hit, m_k in _step_rows(views, record, states, states[1:], hits, m):
            # log_coeffs: f = (-s2/2 e^y + (s2 N - beta)) e^y + c0,
            # g = sigma (N - e^y), g g' = -s2 e^y (N - e^y)
            exp(y, ex)
            sub(big_n, ex, n_ex)
            mul(a1_sigma, en, fg)
            add(fy, a2, fy)
            mul(fy, ex, fy)
            add(fy, c0, fy)
            mul(neg_s2, ex, ggy)
            mul(ggy, n_ex, ggy)
            # y + f h + g dW + g g' dZeta, reset at or above log N
            mul(fgg, m_k, fgg)
            add(y, fy, nxt)
            add(nxt, gy, nxt)
            add(nxt, ggy, nxt)
            ge(nxt, log_n, hit)
            np.copyto(nxt, reset, where=hit)
        if hits.any():
            counts[...] += hits.sum(axis=0)
        # -inf and NaN persist, +inf is reset: the last states show every bad row
        if not np.isfinite(states[-1]).all():
            row = np.flatnonzero(~np.isfinite(states[-1]))[0]
            at = done[0] + np.argmin(np.isfinite(states[:, row]))
            raise PreconditionError(f"Y is not finite on row {row} from step {at} on")
        done[0] += len(m)

    with np.errstate(over="ignore", invalid="ignore"):  # step_tile raises on them
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
    """Batch output of the direct scheme; violated is a per-path flag."""

    i_snaps: np.ndarray | None
    i_final: np.ndarray
    violated: np.ndarray


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
    violated flags of its parts are OR-ed together.

    Each step is 8 ufunc calls on stacked rows, with the operands and order
    of drift_original and diffusion_original; dZeta, the domain check and the
    NaN freeze run once per tile of steps. The freeze may wait because no
    sum, difference or product of a non-finite operand is finite.
    """
    dw = np.asarray(dw, dtype=np.float64)
    n_paths = len(dw)
    violated = np.zeros(n_paths, dtype=bool)
    # c = beta N - (mu + gamma), formed as drift_original forms it; each
    # constant is a full row, as a Python-float operand costs more per call
    scale, cnn = (np.repeat(np.array(v)[:, None], n_paths, axis=1)
                  for v in ((p.beta, 1.0, 2.0, 1.0, p.sigma),
                            (p.beta * p.N - p.mu_plus_gamma, p.N, p.N)))
    x = np.empty((6, n_paths))
    x[5] = p.sigma
    y, ab = np.empty((2, 3, n_paths))
    x5, x3, x36, (ah, bw, bbz) = x[:5], x[:3], x[3:], ab
    views = []
    # ufuncs with the output as third argument, cheaper to call than out=
    mul, sub, add = np.multiply, np.subtract, np.add

    def step_tile(k, states, m):
        new = states[1:]
        for I, nxt, m_k in _step_rows(views, record, states, new, m):
            # x = beta I, I, 2 I, I, sigma I, sigma (I twice: x[:3] and x[3:] are
            # one operand each); ab = a = I (c - beta I), b = (sigma I) (N - I) and
            # b b' with b' = sigma (N - 2 I), then a h, b dW and b b' dZeta
            mul(scale, I, x5)
            sub(cnn, x3, y)
            mul(x36, y, ab)
            mul(bw, bbz, bbz)
            mul(ab, m_k, ab)
            add(I, ah, nxt)
            add(nxt, bw, nxt)
            add(nxt, bbz, nxt)
        violated[...] |= ~((new >= 0.0) & (new <= p.N)).all(axis=0)  # NaN flags too
        np.copyto(new, np.nan, where=~np.isfinite(new))

    with np.errstate(over="ignore", invalid="ignore"):
        snaps, i_final = _walk_tiles(np.full(n_paths, i0, dtype=np.float64), dw, h,
                                     1, record, step_tile)
    return MilsteinBatch(i_snaps=snaps, i_final=i_final, violated=violated)
