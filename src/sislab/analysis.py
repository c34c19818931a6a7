"""Experiment layer: coupled-path strong errors, rate fits, long-run dynamics
classification, and truncation-frequency tables.

Everything here is deterministic given (base_seed, n_paths): paths are keyed
by absolute path index, partial results land in preallocated per-path arrays,
and reductions run once over those arrays in index order. Each path's stream
is drawn once, forward in time blocks of one buffer (PathStreams.blocks), and
stepped in one call per step size and block; the kernels carry their per-row
states on, so memory per chunk is chunk times block whatever the horizon.
The blocks are _BLOCK steps long, except in dynamics_verdicts, which records
the blocks in the second half of its runs: its blocks are _DYNAMICS_BLOCK
steps long, and of each recorded one it keeps only the sign changes its
verdicts count. milstein_violation_fraction steps live rows only: after each
_VIOLATION_BLOCK-step block it keeps the flags of the paths that are violated
or at exactly 0, whose flags can no longer change, and draws and steps only
the others from then on. Parameter sets on shared increments
(truncation_table) step as parameter groups of those calls.

Each experiment's chunk loop is one module-level worker per _CHUNK paths,
handed that chunk's streams by one walker, _over_chunks. A large run cuts
0 .. n_paths into one contiguous range per available core and walks each in
a child process of its own, forked with os.fork, which pickles its
per-chunk results back through a pipe; they are joined in path-index order
before one reduction. The chunk size, the time blocks and the number
of worker processes change memory use and wall time, never the numbers.

Argument checks that a config can trip raise ConfigError, a ValueError the
command line reports as a config error (exit 2).
"""

from __future__ import annotations

import math
import os
import pickle
import sys
import threading
from dataclasses import dataclass, replace

import numpy as np

from .model import regime_report
from .paths import PathStreams
from .paths import generate  # noqa: F401  perfbench/spans.py wraps it here
from .schemes import _STEP_RTOL, SchemeParams, lcm_evolve, milstein_evolve

__all__ = [
    "ConfigError",
    "DynamicsVerdict",
    "ErrorTable",
    "RateFit",
    "TruncationTable",
    "classify_dynamics",
    "dynamics_verdicts",
    "fit_rate",
    "milstein_violation_fraction",
    "strong_error",
    "truncation_table",
    "write_dynamics_summary",
    "write_error_table",
    "write_rate_fit",
    "write_trajectory",
    "write_truncation_table",
]


class ConfigError(ValueError):
    """The experiment config is missing, malformed, or inconsistent: raised
    where parsing or an experiment's own argument checks reject what a config
    asks for. Any other ValueError is a fault in the program."""


@dataclass(frozen=True)
class ErrorTable:
    """Strong errors per step size, against a common fine reference."""

    step_sizes: tuple[float, ...]
    errors: tuple[float, ...]
    n_paths: int
    h_reference: float


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log error against log h, with its SSR."""

    q: float
    residual: float


def fit_rate(table):
    """Fit error ~ C h^q by ordinary least squares in log-log coordinates."""
    h = np.asarray(table.step_sizes, dtype=np.float64)
    e = np.asarray(table.errors, dtype=np.float64)
    if h.size < 2:
        raise ConfigError("rate fit needs at least two (h, error) rows")
    if np.any(h <= 0.0) or np.any(e <= 0.0):
        raise ConfigError("rate fit needs positive step sizes and errors")
    x = np.log(h)
    y = np.log(e)
    dx = x - x.mean()
    sxx = float(np.dot(dx, dx))
    if sxx == 0.0:
        raise ConfigError("rate fit needs at least two distinct step sizes")
    q = float(np.dot(dx, y - y.mean()) / sxx)
    resid = y - y.mean() - q * dx
    return RateFit(q=q, residual=float(np.dot(resid, resid)))


_CHUNK = 1024  # paths per chunk, whose streams are drawn and stepped together
# (truncation_table steps pairs x chunk rows per call, 12 x 1,024 for
# configs/table4_sets.cfg; at 12 x 8,192 a step's rows no longer fit in cache
# and cost about 1.8x more per path-step)
# Steps per time block of every experiment but dynamics_verdicts (a power of
# two, so it holds whole coarse steps of every dyadic level up to its own
# length). Chunk x block doubles is 33.5 MB, and a chunk may hold several:
# truncation_table a block, a scaled copy and, while transposing, the draw.
_BLOCK = 4096
# Steps per time block of dynamics_verdicts, which records the blocks that
# reach the second half of a run: a chunk then holds a block, its recording
# and the kernel's tile, a few hundred KB per 100 rows, whatever the horizon.
# 1,024 seeds at T = 128, h = 2^-6 in one process peaked at 38.6 MiB VmHWM
# against 104.4 MiB in _BLOCK-step blocks, and configs/ex5_4.cfg's peak RSS
# fell from 40.8 to 39.0 MB (39.4 MB in 256-step blocks). The cost is the
# draw's per-row call overhead: 20-25 ns per normal at 100 rows, against
# 16-21 ns in _BLOCK-step blocks (2-core x86-64).
_DYNAMICS_BLOCK = 128
# Steps per time block of milstein_violation_fraction, whose chunks drop each
# path after the block in which its flag becomes final, and end within one
# block of the last. Both 64-path chunks of the benchmark's fine run (h =
# 2^-15, seed 606) took 0.362 s in one process (median of 31) against 0.393 s
# in _DYNAMICS_BLOCK-step blocks, which draw 4.6% fewer normals but pay more
# per normal and per kernel call (2-core x86-64).
_VIOLATION_BLOCK = 1024
# Rows of a block whose coarse sums strong_error forms for every level in
# turn, while the 32 x 4,096 slice (1 MiB) is in cache: configs/ex5_1.cfg's
# five levels of a 512 x 4,096 block, summed after its reference run, took
# 9.3-9.6 ms (medians) against 11.0 ms level by level (2-core x86-64).
_SUM_ROWS = 32
# Kernel row-steps below which a run stays in this process. Forking two
# workers, reading their results back and reaping them took 4.5-9 ms (2-core
# x86-64, Python 3.11); at the experiments' cheapest 25-30 ns per row-step,
# half of 2M row-steps is 25-30 ms, so sharding repays it three times over.
_SHARD_FLOOR = 2_000_000


def _cores():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _over_chunks(worker, n_paths, base_seed, row_steps, *args):
    """[worker(streams, *args)] over the _CHUNK-path chunks of paths
    0 .. n_paths - 1, in path-index order.

    A run of at least _SHARD_FLOOR row-steps is cut into one contiguous range
    per available core, each walked in a child forked by _fork_walk; this
    process walks none of them, and reads the children's results back in
    range order. A worker's exception is raised here, with the worker's
    traceback as its cause, and a child that dies without a result is a
    RuntimeError naming its range. Every child is reaped before the call
    returns or raises, the rest killed first on a failure or an interrupt.
    Anything smaller, or a process that cannot fork safely (no os.fork, or
    other threads running), is walked here.
    """
    if n_paths < 1:
        raise ConfigError(f"n_paths must be positive, got {n_paths!r}")
    n = min(_cores(), n_paths)
    if (n > 1 and row_steps >= _SHARD_FLOOR and hasattr(os, "fork")
            and threading.active_count() == 1):
        cuts = [n_paths * k // n for k in range(n + 1)]
        children, results = [], []  # children: (lo, hi, pid, pipe), unreaped
        try:
            for lo, hi in zip(cuts, cuts[1:]):
                children.append((lo, hi, *_fork_walk(lo, hi, worker, base_seed, *args)))
            while children:
                lo, hi, pid, pipe = children[0]
                with pipe:
                    sent = pipe.read()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                children.pop(0)
                if code != 0 or not sent:
                    raise RuntimeError(f"the worker for paths {lo} .. {hi - 1} "
                                       f"exited with code {code} without a result")
                value, trace = pickle.loads(sent)
                if trace is not None:
                    raise value from _WorkerTraceback(trace)
                results += value
            return results
        finally:
            if children:  # a failure or an interrupt: no child may outlive the call
                from signal import SIGKILL

                for *_, pid, pipe in children:
                    pipe.close()
                    os.kill(pid, SIGKILL)
                for *_, pid, _ in children:
                    os.waitpid(pid, 0)
    return _walk_chunks(0, n_paths, worker, base_seed, *args)


class _WorkerTraceback(Exception):
    """The formatted traceback of an exception raised in a forked worker,
    set as the cause of that exception when it is raised again here."""


def _fork_walk(lo, hi, worker, base_seed, *args):
    """Fork a child that walks paths lo .. hi - 1, writes (their results,
    None) or (its exception, the formatted traceback), pickled, into a pipe of
    its own and leaves through os._exit; returns the child's pid and that
    pipe's read end, as a file. An exception that cannot be pickled is sent
    as a RuntimeError that quotes it."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, open(r, "rb")
    code = 1
    try:
        try:
            sent = pickle.dumps((_walk_chunks(lo, hi, worker, base_seed, *args), None))
        except BaseException as exc:
            import traceback

            trace = traceback.format_exc()
            try:
                sent = pickle.dumps((exc, trace))
            except Exception:  # an exception pickle cannot send: send its repr
                sent = pickle.dumps((RuntimeError(f"{exc!r}, not picklable"), trace))
        with open(w, "wb") as pipe:
            pipe.write(sent)
        code = 0
    finally:
        os._exit(code)


def _walk_chunks(lo, hi, worker, base_seed, *args):
    return [worker(PathStreams(base_seed, c0, min(c0 + _CHUNK, hi)), *args)
            for c0 in range(lo, hi, _CHUNK)]


def _whole_steps(t_final, h, what):
    for name, x in ((what, t_final), ("step size", h)):
        if not (math.isfinite(x) and x > 0.0):
            raise ConfigError(f"{name} must be finite and positive, got {x!r}")
    ratio = t_final / h
    if not math.isfinite(ratio):
        raise ConfigError(f"{what} {t_final!r} is too many steps of {h!r}")
    steps = round(ratio)
    if steps < 1 or not math.isclose(steps * h, t_final, rel_tol=_STEP_RTOL):
        raise ConfigError(f"{what} {t_final!r} is not a whole number of steps of {h!r}")
    return steps


def strong_error(params, scheme_ref, levels, n_paths, base_seed, t_final):
    """Coupled-path strong errors of the log-space scheme at several step sizes.

    Every level reuses the same fine Brownian increments as the reference run
    (summed in blocks), so the difference measured per path is discretization
    error alone. The error at step size L is the L2 norm, over paths, of the
    end-time gap |I_ref(T) - I_L(T)|.
    """
    levels = tuple(float(x) for x in levels)
    h_ref = float(scheme_ref.h)
    fine_steps = _whole_steps(t_final, h_ref, "t_final")
    ratios = []
    for L in levels:
        r = round(L / h_ref)
        if (r < 1 or not math.isclose(r * h_ref, L, rel_tol=_STEP_RTOL)
                or r & (r - 1) or fine_steps % r):
            raise ConfigError(
                f"level {L!r} must be a power-of-two multiple of the "
                f"reference step {h_ref!r} that divides the horizon")
        ratios.append(r)

    schemes = [replace(scheme_ref, h=L) for L in levels]
    gap2 = np.concatenate(_over_chunks(
        _strong_error_chunk, n_paths, base_seed, n_paths * fine_steps, params,
        scheme_ref, schemes, ratios, fine_steps, t_final), axis=1)
    errors = tuple(math.sqrt(float(np.mean(gap2[li])))
                   for li in range(len(levels)))
    return ErrorTable(step_sizes=levels, errors=errors, n_paths=n_paths,
                      h_reference=h_ref)


def _strong_error_chunk(streams, params, scheme_ref, schemes, ratios,
                        fine_steps, t_final):
    """End-time gap^2 per level (rows) for one chunk's paths (columns)."""
    y0 = math.log(params.I0)
    block = max([_BLOCK, *ratios])  # whole coarse steps of every level
    y_ref, y_lev = y0, [y0] * len(schemes)
    for start, dwf in streams.blocks(fine_steps, t_final / fine_steps, block):
        y_ref = lcm_evolve(y_ref, dwf, params, scheme_ref, steps_done=start).y_final
        # contiguous cell sums (any other summation axis changes bits), every
        # level's from one slice of rows while that slice is in cache
        sums = [dwf if r == 1 else np.empty((len(dwf), dwf.shape[1] // r))
                for r in ratios]
        for r0 in range(0, len(dwf), _SUM_ROWS):
            rows = dwf[r0:r0 + _SUM_ROWS]
            for r, dwl in zip(ratios, sums):
                if r > 1:
                    rows.reshape(len(rows), -1, r).sum(axis=2, out=dwl[r0:r0 + _SUM_ROWS])
        for li, (s, r, dwl) in enumerate(zip(schemes, ratios, sums)):
            y_lev[li] = lcm_evolve(y_lev[li], dwl, params, s,
                                   steps_done=start // r).y_final
    return (np.exp(y_ref) - np.exp(y_lev)) ** 2


def milstein_violation_fraction(params, h, t_final, n_paths, base_seed):
    """Fraction of direct-Milstein paths that ever produce a forbidden state
    (negative, above N, or non-finite) before t_final. A path settles once it
    is violated or at exactly 0, a fixed point of the direct map inside
    [0, N]: its flag is then final, so its chunk stops drawing and stepping
    it after that _VIOLATION_BLOCK-step block, and the chunk ends once none
    of its paths is live. The flags are those of the whole horizon, bit for
    bit."""
    steps = _whole_steps(t_final, float(h), "t_final")
    violated = np.concatenate(_over_chunks(
        _violation_chunk, n_paths, base_seed, n_paths * steps, params, float(h),
        t_final, steps))
    return float(violated.mean())


def _violation_chunk(streams, params, h, t_final, steps):
    """Violated flags of one chunk's paths, each stepped until it settles."""
    violated = np.zeros(len(streams), dtype=bool)
    live = np.arange(len(streams))  # the rows still drawn and stepped
    state = params.I0
    for _, dw in streams.blocks(steps, t_final / steps, _VIOLATION_BLOCK):
        out = milstein_evolve(state, dw, h, params)
        violated[live] = out.violated
        # a, b and b b' vanish at +-0 (c, sigma N and N are finite), so a
        # settled path can change neither its state nor its flag; each path
        # has its own stream, so dropping it changes no bit of the others
        kept = ~(out.violated | (out.i_final == 0.0))
        live, state = live[kept], out.i_final[kept]
        if not live.size:
            break
        streams.keep(kept)
    return violated


@dataclass(frozen=True)
class TruncationTable:
    """Truncation percentages indexed as percent[set, I0, h]."""

    percent: np.ndarray
    hs: tuple[float, ...]
    I0s: tuple[float, ...]
    labels: tuple


def truncation_table(param_sets, I0s, hs, n_paths, horizon, base_seed,
                     alpha=0.1, theta=2.0, labels=None):
    """Percentage of steps the log-space scheme truncates, per parameter set,
    initial value, and step size.

    The denominator is total steps taken (n_paths times steps per path), so a
    path that truncates every other step contributes 50. Each path is drawn
    once, at the largest step count; a step size with fewer steps runs on a
    prefix of those normals, scaled to its step size, which is that step
    size's whole-path draw bit for bit. Every (set, I0) pair is one parameter
    group of the lcm_evolve calls, one call per step size and time block, so
    all pairs step together on the same increments.
    """
    param_sets = list(param_sets)
    I0s = tuple(float(x) for x in I0s)
    hs = tuple(float(x) for x in hs)
    if labels is None:
        labels = tuple(range(1, len(param_sets) + 1))
    groups = [replace(p0, I0=i0) for p0 in param_sets for i0 in I0s]
    if not groups:
        raise ConfigError("truncation_table needs a parameter set and an I0")
    schemes = [SchemeParams(h=h, alpha=alpha, theta=theta) for h in hs]
    steps = [_whole_steps(horizon, h, "horizon") for h in hs]
    counts = sum(_over_chunks(
        _truncation_chunk, n_paths, base_seed, n_paths * len(groups) * sum(steps),
        groups, schemes, steps, horizon))
    percent = 100.0 * counts.T / (n_paths * np.array(steps, dtype=np.int64))
    return TruncationTable(
        percent=percent.reshape(len(param_sets), len(I0s), len(hs)), hs=hs,
        I0s=I0s, labels=tuple(labels))


def _truncation_chunk(streams, groups, schemes, steps, horizon):
    """Truncated-step counts per (step size, group) over one chunk's paths."""
    longest = max(steps, default=0)
    counts = np.zeros((len(schemes), len(groups)), dtype=np.int64)
    y0 = np.repeat([math.log(q.I0) for q in groups], len(streams))  # group-major
    states = [y0] * len(schemes)
    buf = np.empty((min(_BLOCK, longest), len(streams)))  # as long as any block
    for start, normals in streams.blocks(longest, 1.0, _BLOCK):
        for k, (s, n) in enumerate(zip(schemes, steps)):
            if n <= start:
                continue
            # scaled step-major, so that the kernels copy whole rows
            dw = np.multiply(normals[:, :n - start].T, math.sqrt(horizon / n),
                             out=buf[:n - start])
            out = lcm_evolve(states[k], dw.T, groups, s, steps_done=start)
            states[k] = out.y_final
            counts[k] += out.trunc_counts.reshape(len(groups), -1).sum(axis=1)
    return counts


# the verdicts' decision constants; an extinct run's Lyapunov estimate may
# fall short of the theoretical decay rate by the fraction _MARGIN
_MARGIN = 0.5
_EXTINCTION_FLOOR = 1e-8
_MIN_CROSSINGS = 3
_MIN_HORIZON = 1.0


@dataclass(frozen=True)
class DynamicsVerdict:
    kind: str  # "Extinct" | "Persistent" | "Inconclusive"
    lyapunov_estimate: float
    lambda_crossings: int
    terminal_value: float


def _sign_changes(d):
    """Sign changes down each column of d, exact zeros skipped, and each
    column's last non-zero sign (0 if none); d is overwritten. A column cut
    in pieces, each led by the last sign before it, counts the same."""
    np.sign(d, out=d)
    for k in np.flatnonzero(~d[1:].all(axis=1)) + 1:  # rows holding a zero
        np.copyto(d[k], d[k - 1], where=d[k] == 0.0)  # take the sign before it
    # filled, a column is 0 only before its first sign, so its changes are its
    # steps between unequal rows less the step from 0, if it has one
    unequal = np.count_nonzero(d[1:] != d[:-1], axis=0)
    return unequal - ((d[0] == 0.0) & (d[-1] != 0.0)), d[-1].copy()


def _check_horizon(t_span):
    # t_span is steps x (t_final / steps), which can round below t_final (49 x
    # 1/49 = 0.9999999999999999): a span within the grid's step tolerance of
    # the minimum is the minimum
    if t_span < _MIN_HORIZON and not math.isclose(t_span, _MIN_HORIZON,
                                                  rel_tol=_STEP_RTOL):
        raise ConfigError(f"horizon {t_span:g} is too short to classify dynamics "
                          f"(need at least {_MIN_HORIZON:g})")


def _dynamics_grid(t_final, h):
    """Steps and grid step of a dynamics run at step size h, checked: a whole
    number of steps that spans at least the minimum horizon."""
    steps = _whole_steps(t_final, h, "t_final")
    _check_horizon(steps * (t_final / steps))
    return steps, t_final / steps


def _verdict(rep, t_span, log_term, terminal, crossings):
    """One run's verdict from its last state and its level crossings."""
    lyap = log_term / t_span
    kind = "Inconclusive"
    if rep.f_max_sigma is not None:
        if lyap <= (1.0 - _MARGIN) * rep.f_max_sigma and terminal < _EXTINCTION_FLOOR:
            kind = "Extinct"
    elif rep.persistence_lambda is not None and crossings >= _MIN_CROSSINGS:
        kind = "Persistent"
    return DynamicsVerdict(kind, lyap, crossings, terminal)


def classify_dynamics(traj, p):
    """Judge one trajectory against the long-run theorem its parameters fall
    under, by the rule dynamics_verdicts streams.

    In the extinction regime the test is a Lyapunov estimate log I(T) / T
    within margin of the theoretical rate plus a terminal value below the
    floor. In the persistence regime it is repeated crossings of the
    persistence level during the second half of the run. Parameter sets
    covered by neither theorem, and runs failing their regime's test, come
    back Inconclusive.
    """
    times = np.asarray(traj.times, dtype=np.float64)
    t_span = float(times[-1] - times[0])
    _check_horizon(t_span)
    rep = regime_report(p)
    crossings = 0
    if rep.persistence_lambda is not None:
        tail = times >= times[0] + 0.5 * t_span
        d = np.asarray(traj.values, dtype=np.float64)[tail] - rep.persistence_lambda
        crossings = int(_sign_changes(d[:, None])[0][0])
    return _verdict(rep, t_span, float(traj.log_values[-1]), float(traj.values[-1]),
                    crossings)


def dynamics_verdicts(params, scheme, t_final, n_paths, base_seed):
    """classify_dynamics of paths 0 .. n_paths - 1, in index order, each on
    lcm_simulate along its generate draw, bit for bit: each chunk draws and
    steps in _DYNAMICS_BLOCK-step blocks, records only the blocks that reach
    the second half of the run, and keeps of them only the last states and
    the sign changes."""
    steps, h = _dynamics_grid(t_final, scheme.h)
    return sum(_over_chunks(_dynamics_chunk, n_paths, base_seed, n_paths * steps,
                            params, scheme, steps, h), [])


def _dynamics_chunk(streams, params, scheme, steps, h):
    """Verdicts of one chunk's paths, on the grid's own step h, drawn and
    stepped in _DYNAMICS_BLOCK-step blocks; in the persistence regime the
    blocks that reach the tail (the second half of the run) are recorded."""
    rep = regime_report(params)
    level = rep.persistence_lambda
    # the first state k with k h >= steps h / 2, on classify_dynamics' times
    tail = int(np.searchsorted(np.arange(steps + 1) * h, 0.5 * (steps * h)))
    y = math.log(params.I0)
    crossings = np.zeros(len(streams), dtype=np.int64)
    signs = np.zeros(len(streams))  # each path's last non-zero sign, carried
    for start, dw in streams.blocks(steps, h, _DYNAMICS_BLOCK):
        record = level is not None and start + dw.shape[1] >= tail
        out = lcm_evolve(y, dw, params, scheme, record=record, steps_done=start)
        y = out.y_final
        if record:
            # the block's tail states, in place, led by the carried signs
            d = out.y_snaps.T[max(tail - start, 1) - 1:]
            np.exp(d[1:], out=d[1:])
            d[1:] -= level
            d[0] = signs
            counts, signs = _sign_changes(d)
            crossings += counts
        out = d = None  # release this recording before the next call makes its own
    return [_verdict(rep, steps * h, float(yj), float(ij), int(cj))
            for yj, ij, cj in zip(y, np.exp(y), crossings)]


def _num(x):
    return repr(float(x))


def _compact(x):
    xf = float(x)
    return str(int(xf)) if xf == int(xf) else repr(xf)


def write_error_table(table, fh):
    fh.write("h,error\n")
    for h, e in zip(table.step_sizes, table.errors):
        fh.write(f"{_num(h)},{_num(e)}\n")


def write_rate_fit(fit, fh):
    fh.write("q,residual\n")
    fh.write(f"{_num(fit.q)},{_num(fit.residual)}\n")


def write_truncation_table(tbl, fh):
    fh.write("set,I0,h,percent\n")
    for si, lab in enumerate(tbl.labels):
        for ii, i0 in enumerate(tbl.I0s):
            for hi_, h in enumerate(tbl.hs):
                fh.write(f"{lab},{_compact(i0)},{_compact(h)},"
                         f"{_num(tbl.percent[si, ii, hi_])}\n")


def write_dynamics_summary(rows, fh):
    fh.write("seed,kind,lyapunov,crossings,terminal\n")
    for seed, v in rows:
        fh.write(f"{seed},{v.kind},{_num(v.lyapunov_estimate)},"
                 f"{v.lambda_crossings},{_num(v.terminal_value)}\n")


def write_trajectory(params, scheme, t_final, steps, base_seed, direct, out=None):
    """Write path 0 of base_seed over steps steps of t_final / steps as CSV
    with full round-trip precision: t,I,Y,truncated from the log-space scheme
    at scheme.h, or t,I from the direct scheme if direct, drawn, stepped and
    written in _BLOCK-step blocks. out is a file path, stdout if None; a file
    that a failed run leaves part-written is removed."""
    rows = _trajectory_rows(params, scheme, t_final, steps, base_seed, direct)
    if out is None:
        sys.stdout.writelines(rows)
        return
    with open(out, "w") as fh:
        try:
            fh.writelines(rows)
        except BaseException:
            os.remove(out)  # POSIX unlinks an open file
            raise


def _trajectory_rows(params, scheme, t_final, steps, base_seed, direct):
    """write_trajectory's header, then the rows of each block as one string."""
    h = t_final / steps
    yield "t,I\n" if direct else "t,I,Y,truncated\n"
    row = "%.17g,%.17g\n" if direct else "%.17g,%.17g,%.17g,%d\n"
    state = params.I0 if direct else math.log(params.I0)
    for start, dw in PathStreams(base_seed, 0, 1).blocks(steps, h, _BLOCK):
        if direct:
            out = milstein_evolve(state, dw, h, params, record=True)
            state, cols = out.i_final, (out.i_snaps[0],)
        else:
            out = lcm_evolve(state, dw, params, scheme, record=True, steps_done=start)
            y = out.y_snaps[0]
            state, cols = out.y_final, (np.exp(y), y, np.concatenate([[0], out.flags[0]]))
        skip = 1 if start else 0  # a block's first state ended the block before
        cols = [np.arange(start, start + dw.shape[1] + 1) * h, *cols]
        yield "".join(map(row.__mod__, zip(*(c[skip:].tolist() for c in cols))))
