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
is bit-identical to the same path run as a row of a batch (a 1-row call steps
two copies of its row, which costs less per step). Both kernels step in place,
each operation of a step writing into a preallocated row, on one tile walker:
per tile of steps it transposes dW into one step-major (h, dW, dZeta) operand
that every parameter group of lcm_evolve meets, the kernel steps a tile-sized
state buffer, and record=True copies each finished tile out. lcm_evolve's
per-group floor on y before np.exp, checked to leave f and g exact, spares
extinct rows subnormal e^y and changes no step whose sum is not near 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, PreconditionError, _log_constants
from .model import log_coeffs  # noqa: F401  perfbench/spans.py wraps it here
from .paths import coarsen  # noqa: F401  perfbench/spans.py wraps it here

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


# Rows x steps of one tile. A tile holds the state after each of its steps
# and, per row of dw, its h, dW and dZeta operands: at most 4 x 2^15 doubles
# (1 MiB) in all.
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


def _walk_tiles(start, dw, h, record, step_tile):
    """Step start's rows on the increments dw, tile by tile: step_tile(k,
    states, m) steps the tile from step k, where m[j] holds step j's h, dW and
    dZeta = (dW^2 - h) / 2 as three contiguous rows of dw's width, and it
    writes the state after step j into states[j + 1] from states[0]. states
    and m are prefixes of the same tile-sized buffers on every tile, so a
    kernel may cache its per-step views of the first, longest, tile.
    Returns every state, transposed from a step-major copy of each finished
    tile (None unless record), and the final states.
    """
    width, steps = dw.shape
    tile = _tile_steps(len(start), steps)
    states = np.empty((tile + 1, len(start)))
    rec = np.empty((steps + 1, len(start))) if record else states
    states[0] = rec[0] = start
    m = np.empty((tile, 3, width))
    m[:, 0] = h
    for k0 in range(0, steps, tile):
        n = min(tile, steps - k0)
        # dW and dZeta formed on contiguous rows, those of states this tile has yet
        # to write: ufuncs on m's interleaved rows cost 2.5-3.5x more per element
        w = states[1:n + 1].reshape(-1)[:n * width].reshape(n, width)
        slab = max(64, _SLAB_DOUBLES // n)
        for r0 in range(0, width, slab):
            np.copyto(w[:, r0:r0 + slab], dw[r0:r0 + slab, k0:k0 + n].T)
        np.copyto(m[:n, 1], w)
        np.multiply(w, w, w)
        w *= 0.5
        w -= 0.5 * h
        np.copyto(m[:n, 2], w)
        step_tile(k0, states[:n + 1], m[:n])
        if record:
            rec[k0 + 1:k0 + n + 1] = states[1:n + 1]
        states[0] = states[n]
    return (rec.T if record else None), states[0].copy()


def _exp_floor(a1, _, a2, c0, n, neg_s2):
    """Per group, lcm_evolve's floor on y before np.exp: e^floor is 2^-1001 over
    max(1, -a1, |a2|, sigma^2 N), or -inf unless at e^floor, as at 0, a1 e + a2 is
    a2, a2 e + c0 is c0, N - e is N (each monotone in e) and sigma^2 N e <= 2^-1000."""
    floor = -1001 * math.log(2) - np.log(np.max([-a1, abs(a2), -neg_s2 * n], 0).clip(1))
    e = np.exp(floor)
    exact = (a1 * e + a2 == a2) & (a2 * e + c0 == c0) & (n - e == n)
    return np.where(exact & (abs(neg_s2 * e * n) <= 2.0**-1000), floor, -np.inf)


def lcm_evolve(y0, dw, p, s, record=False, steps_done=0):
    """Evolve a batch of log-space paths from y0, one start state per row or
    a scalar shared by all rows, at the scheme's step s.h.

    p is one ModelParams or a sequence of G of them. dw has one row per
    increment path and one column per step, and every group runs on all of
    it: row g W + r of the batch uses p[g] and row r of dw, so y0, y_final,
    trunc_counts and the recordings have G W rows (G = 1 for one ModelParams).
    With record=True, y_snaps holds every state from the initial one and
    flags each truncated step, as transposed views of step-major arrays (not
    C-contiguous); otherwise both are None.
    A run split at any step and resumed from y_final equals one call bit for
    bit (trunc_counts add up), so callers may feed increments in time blocks.
    Non-finite start states or increments raise ValueError, and a state that
    leaves float64 raises PreconditionError naming its row and step, counted
    from the start of the run: steps_done is the steps the run took before
    this call.

    Each step is np.exp(max(y, _exp_floor)), log_coeffs' operations in order
    and grouping and the Milstein update ((y + f h) + g dW) + g g' dZeta, each
    a ufunc call into a preallocated row (for G > 1, (3, G, W) rows of f h, g dW
    and g g' dZeta against one (3, 1, W) operand); truncations count per tile.
    The floor moves only g g', by 2^-1000 at most, so a step differs only where
    (y + f h) + g dW is within 2^-946 |dZeta| of 0.
    """
    groups = [p] if isinstance(p, ModelParams) else list(p)
    dw = np.asarray(dw, dtype=np.float64)
    pad = len(groups) * len(dw) == 1  # a step costs less on two rows than on one
    dw = dw.repeat(2, axis=0) if pad else dw
    width, steps = dw.shape
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
    consts = np.array(table, dtype=np.float64).reshape(-1, 8).T
    consts = np.repeat(np.vstack([consts, _exp_floor(*consts[2:])]), width, axis=1)
    log_n, reset, _, _, a2, c0, big_n, neg_s2, floor = consts
    a1_sigma = consts[2:4]  # one operand, against en
    en = np.empty((2, n_rows))  # e^y and N - e^y
    fgg = np.empty((3, n_rows))  # f, g and g g', then f h, g dW and g g' dZeta
    (ex, n_ex), (fy, gy, ggy), fg = en, fgg, fgg[:2]
    fgw = fgg if len(groups) == 1 else fgg.reshape(3, len(groups), width)
    hits = np.empty((_tile_steps(n_rows, steps), n_rows), bool)
    flags = np.empty((steps, n_rows), bool) if record else None
    # ufuncs with the output as third argument, cheaper to call than out=
    exp, mul, add, sub, ge = np.exp, np.multiply, np.add, np.subtract, np.greater_equal
    views = []

    def step_tile(k, states, m):
        if not views:
            views[:] = zip(states, states[1:], hits, m if fgw is fgg else m[:, :, None])
        for y, nxt, hit, m_k in views[:len(m)]:
            # log_coeffs: f = (-s2/2 e^y + (s2 N - beta)) e^y + c0,
            # g = sigma (N - e^y), g g' = -s2 e^y (N - e^y)
            exp(np.maximum(y, floor, out=ex), ex)  # a positional out is deprecated here
            sub(big_n, ex, n_ex)
            mul(a1_sigma, en, fg)
            add(fy, a2, fy)
            mul(fy, ex, fy)
            add(fy, c0, fy)
            mul(neg_s2, ex, ggy)
            mul(ggy, n_ex, ggy)
            # y + f h + g dW + g g' dZeta, reset at or above log N
            mul(fgw, m_k, fgw)
            add(y, fy, nxt)
            add(nxt, gy, nxt)
            add(nxt, ggy, nxt)
            ge(nxt, log_n, hit)
            np.copyto(nxt, reset, where=hit)
        tile_hits = hits[:len(m)]
        if record:
            flags[k:k + len(m)] = tile_hits
        for j in range(0, len(m) if tile_hits.any() else 0, 255):  # exact in uint8
            counts[...] += tile_hits[j:j + 255].view(np.uint8).sum(axis=0, dtype=np.uint8)
        # -inf and NaN persist, +inf is reset: the last states show every bad row
        if not np.isfinite(states[-1]).all():
            row = np.flatnonzero(~np.isfinite(states[-1]))[0]
            at = steps_done + k + np.argmin(np.isfinite(states[:, row]))
            raise PreconditionError(f"Y is not finite on row {row} from step {at} on")

    with np.errstate(over="ignore", invalid="ignore"):  # step_tile raises on them
        snaps, final = _walk_tiles(start, dw, s.h, record, step_tile)
    out = LcmBatch(snaps, final, counts, flags.T if record else None)
    if pad:  # row 0 of the two
        out = LcmBatch(*(a if a is None else a[:1] for a in vars(out).values()))
    return out


def lcm_simulate(inc, p, s):
    """Run the log-space scheme along one path of LevyIncrements (coarsen's)."""
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
    pad = len(dw) == 1  # a step costs less on two rows than on one
    dw = dw.repeat(2, axis=0) if pad else dw
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
        if not views:
            views[:] = zip(states, states[1:], m)
        for I, nxt, m_k in views[:len(m)]:
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
        new = states[1:]
        violated[...] |= ~((new >= 0.0) & (new <= p.N)).all(axis=0)  # NaN flags too
        np.copyto(new, np.nan, where=~np.isfinite(new))

    start = np.full(n_paths, i0, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        out = MilsteinBatch(*_walk_tiles(start, dw, h, record, step_tile), violated)
    if pad:  # row 0 of the two
        out = MilsteinBatch(*(a if a is None else a[:1] for a in vars(out).values()))
    return out
