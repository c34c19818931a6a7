"""Strong-error estimation, rate fitting, dynamics classification, truncation
statistics.

The rounded-table fit oracles were computed in tools/derive_oracles.py (natural
logs, 50-digit OLS) before fit_rate existed. They differ from the published
fit because the published one used unrounded errors.
"""

import functools
import io
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sislab import analysis, schemes
from sislab.model import ModelParams, persistence_alpha_bound
from sislab.paths import PathStreams, coarsen, generate
from sislab.schemes import (
    SchemeParams,
    Trajectory,
    lcm_evolve,
    lcm_simulate,
    milstein_evolve,
)
from sislab.analysis import (
    ConfigError,
    ErrorTable,
    RateFit,
    classify_dynamics,
    dynamics_verdicts,
    fit_rate,
    milstein_violation_fraction,
    strong_error,
    truncation_table,
    write_dynamics_summary,
    write_error_table,
    write_rate_fit,
    write_trajectory,
    write_truncation_table,
)

ROOT = Path(__file__).resolve().parents[1]
# numpy's float64 exp rounds some results 1 ulp apart on its AVX-512 loop and
# on its baseline loop, so frozen floats are recorded once for each loop
AVX512_EXP = np._core._multiarray_umath.__cpu_features__["AVX512_SKX"]

P_CONV1 = ModelParams(N=10, beta=0.5, sigma=0.2, mu_plus_gamma=4.0, I0=1.0)
P_EXT = ModelParams(N=100, beta=0.42, sigma=0.9, mu_plus_gamma=10.0, I0=90.0)
P_PERS = ModelParams(N=100, beta=0.6, sigma=0.01, mu_plus_gamma=40.0, I0=10.0)
P_SET2 = ModelParams(N=100, beta=0.42, sigma=0.01, mu_plus_gamma=10.0, I0=10.0)

H_ROW = (2.0**-10, 2.0**-9, 2.0**-8, 2.0**-7, 2.0**-6)
ERR_ROW_1 = (0.0006, 0.0013, 0.0026, 0.0051, 0.0103)
ERR_ROW_2 = (0.0014, 0.0029, 0.0059, 0.0120, 0.0243)

# oracle: natural-log OLS on the rounded rows above
FIT_ROW_1 = (1.0175061676754528, 0.0030232720222868012)
FIT_ROW_2 = (1.0283824763577300, 0.00017401091173435667)


class TestFitRate:
    def test_exact_line(self):
        table = ErrorTable(step_sizes=(0.125, 0.25), errors=(0.01, 0.02),
                           n_paths=1, h_reference=0.125)
        fit = fit_rate(table)
        assert fit.q == pytest.approx(1.0, abs=1e-12)
        assert fit.residual == pytest.approx(0.0, abs=1e-20)

    def test_rounded_published_rows(self):
        fit1 = fit_rate(ErrorTable(H_ROW, ERR_ROW_1, n_paths=10_000, h_reference=2.0**-14))
        assert fit1.q == pytest.approx(FIT_ROW_1[0], rel=1e-12)
        assert fit1.residual == pytest.approx(FIT_ROW_1[1], rel=1e-10)
        fit2 = fit_rate(ErrorTable(H_ROW, ERR_ROW_2, n_paths=10_000, h_reference=2.0**-14))
        assert fit2.q == pytest.approx(FIT_ROW_2[0], rel=1e-12)
        assert fit2.residual == pytest.approx(FIT_ROW_2[1], rel=1e-10)

    def test_rescale_invariance(self):
        base = fit_rate(ErrorTable(H_ROW, ERR_ROW_1, 1, 2.0**-14))
        scaled_errors = tuple(37.5 * e for e in ERR_ROW_1)
        scaled = fit_rate(ErrorTable(H_ROW, scaled_errors, 1, 2.0**-14))
        assert scaled.q == pytest.approx(base.q, abs=1e-12)
        assert scaled.residual == pytest.approx(base.residual, abs=1e-12)

    def test_rejects_degenerate_tables(self):
        with pytest.raises(ValueError):
            fit_rate(ErrorTable((0.25,), (0.01,), 1, 0.25))
        with pytest.raises(ValueError):
            fit_rate(ErrorTable((0.125, 0.25), (0.0, 0.02), 1, 0.125))
        with pytest.raises(ValueError):
            fit_rate(ErrorTable((0.125, 0.25), (-0.01, 0.02), 1, 0.125))

    def test_residual_nonnegative(self):
        rng = np.random.default_rng(8)
        errors = tuple(float(x) for x in np.exp(rng.normal(-5, 1, 5)))
        table = ErrorTable(H_ROW, errors, 1, 2.0**-14)
        assert fit_rate(table).residual >= 0.0


class TestStrongError:
    S_REF = SchemeParams(h=2.0**-8, alpha=0.1, theta=2.0)

    def test_identity_level_is_zero(self):
        table = strong_error(P_CONV1, self.S_REF, levels=[2.0**-8],
                             n_paths=8, base_seed=1, t_final=1.0)
        assert table.errors[0] == 0.0

    def test_deterministic_and_chunk_invariant(self, monkeypatch):
        kw = dict(levels=[2.0**-5, 2.0**-4], n_paths=30, base_seed=9, t_final=1.0)
        a = strong_error(P_CONV1, self.S_REF, **kw)
        b = strong_error(P_CONV1, self.S_REF, **kw)
        monkeypatch.setattr(analysis, "_CHUNK", 7)
        c = strong_error(P_CONV1, self.S_REF, **kw)
        assert a.errors == b.errors == c.errors
        assert a.step_sizes == (2.0**-5, 2.0**-4)
        assert a.h_reference == 2.0**-8

    def test_errors_grow_with_step(self):
        table = strong_error(P_CONV1, self.S_REF, levels=[2.0**-6, 2.0**-5, 2.0**-4],
                             n_paths=400, base_seed=4, t_final=1.0)
        e = table.errors
        assert all(x > 0.0 for x in e)
        assert e[0] < e[1] < e[2]
        # order-one doubling, with generous slack at 400 paths
        assert 1.3 < e[1] / e[0] < 3.0
        assert 1.3 < e[2] / e[1] < 3.0

    def test_rejects_levels_finer_than_reference(self):
        with pytest.raises(ValueError):
            strong_error(P_CONV1, self.S_REF, levels=[2.0**-9],
                         n_paths=4, base_seed=0, t_final=1.0)

    def test_rejects_non_dyadic_level(self):
        with pytest.raises(ValueError):
            strong_error(P_CONV1, self.S_REF, levels=[3.0 * 2.0**-8],
                         n_paths=4, base_seed=0, t_final=1.0)


def sign_changes(values, level):
    d = (np.asarray(values, dtype=np.float64) - level)[:, None]
    return int(analysis._sign_changes(d)[0][0])


class TestSignChanges:
    def test_constant_sequence(self):
        lam = 32.958789676530359
        assert sign_changes(np.full(100, lam), lam) == 0

    def test_alternating_sequence(self):
        v = np.array([1.0, 3.0, 1.0, 3.0, 1.0])
        assert sign_changes(v, 2.0) == 4

    def test_touch_without_crossing(self):
        v = np.array([1.0, 2.0, 1.0, 2.0, 1.0])
        assert sign_changes(v, 2.0) == 0  # touching the level is not a crossing

    def test_reversal_symmetry(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            v = rng.normal(0.0, 1.0, size=rng.integers(2, 400))
            assert sign_changes(v, 0.1) == sign_changes(v[::-1], 0.1)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.lists(st.lists(st.sampled_from([-2.5, -1.0, 0.0, 0.0, 1e-300, 4.0]),
                             min_size=3, max_size=3), min_size=1, max_size=40),
           st.lists(st.integers(0, 40), max_size=6))
    def test_pieces_carried_equal_whole(self, rows, cuts):
        # each column counted whole, and counted in pieces cut at arbitrary
        # rows, each piece led by the last non-zero sign carried from before
        seq = np.array(rows)
        whole = analysis._sign_changes(seq.copy())[0]
        for col, count in zip(seq.T, whole):
            nz = np.sign(col[col != 0.0])
            assert count == np.count_nonzero(nz[1:] != nz[:-1])
        total = np.zeros(3, dtype=np.int64)
        carry = np.zeros(3)
        bounds = sorted({0, len(seq), *(min(c, len(seq)) for c in cuts)})
        for lo, hi in zip(bounds, bounds[1:]):
            counts, carry = analysis._sign_changes(np.vstack([carry, seq[lo:hi]]))
            total += counts
        assert total.tolist() == whole.tolist()
        assert carry.tolist() == [next((np.sign(x) for x in col[::-1] if x), 0.0)
                                  for col in seq.T]


class TestClassifyDynamics:
    def test_constant_at_lambda_is_inconclusive(self):
        lam = 32.958789676530359
        times = np.arange(801) * 0.25
        traj = Trajectory(times=times, values=np.full(801, lam),
                          log_values=np.full(801, math.log(lam)))
        verdict = classify_dynamics(traj, P_PERS)
        assert verdict.kind == "Inconclusive"
        assert verdict.lambda_crossings == 0

    def test_extinct_run(self):
        s = SchemeParams(h=0.25, alpha=0.1, theta=2.0)
        grid = generate(base_seed=100, path_index=0, t_final=5.0, fine_steps=20)
        traj = lcm_simulate(coarsen(grid, 0), P_EXT, s)
        verdict = classify_dynamics(traj, P_EXT)
        assert verdict.kind == "Extinct"
        assert verdict.lyapunov_estimate <= -4.9
        assert verdict.terminal_value < 1e-8

    def test_persistent_runs(self):
        s = SchemeParams(h=0.25, alpha=0.1, theta=2.0)
        for idx in range(3):
            grid = generate(base_seed=200, path_index=idx, t_final=200.0, fine_steps=800)
            traj = lcm_simulate(coarsen(grid, 0), P_PERS, s)
            verdict = classify_dynamics(traj, P_PERS)
            assert verdict.kind == "Persistent"
            assert verdict.lambda_crossings >= 3

    def test_short_horizon_rejected(self):
        traj = Trajectory(times=np.array([0.0, 0.25]), values=np.array([1.0, 1.0]),
                          log_values=np.zeros(2))
        with pytest.raises(ValueError):
            classify_dynamics(traj, P_PERS)

    def test_gap_regime_is_inconclusive(self):
        # neither theorem applies: no extinction case and R0^S < 1
        p = ModelParams(N=10, beta=0.5, sigma=0.3, mu_plus_gamma=1.0, I0=1.0)
        s = SchemeParams(h=0.25, alpha=0.1, theta=2.0)
        grid = generate(base_seed=5, path_index=0, t_final=5.0, fine_steps=20)
        traj = lcm_simulate(coarsen(grid, 0), p, s)
        assert classify_dynamics(traj, p).kind == "Inconclusive"


class TestTruncationTable:
    def test_silent_set_is_exactly_zero(self):
        # strong-noise extinction set never reaches log N from I0=10
        tbl = truncation_table([P_EXT], I0s=[10.0], hs=[0.5, 0.25],
                               n_paths=200, horizon=10.0, base_seed=3)
        assert tbl.percent.shape == (1, 1, 2)
        assert np.all(tbl.percent == 0.0)

    def test_persistence_set_plateau(self):
        # the near-50% plateau: drift overshoots log N every other step
        p2 = ModelParams(N=100, beta=0.42, sigma=0.01, mu_plus_gamma=10.0, I0=10.0)
        tbl = truncation_table([p2], I0s=[10.0], hs=[2.0**-3],
                               n_paths=300, horizon=20.0, base_seed=3)
        assert tbl.percent[0, 0, 0] == pytest.approx(50.0, abs=3.0)

    def test_deterministic_and_chunk_invariant(self, monkeypatch):
        kw = dict(I0s=[10.0, 50.0], hs=[0.25], n_paths=64, horizon=5.0, base_seed=11)
        a = truncation_table([P_EXT, P_PERS], **kw)
        monkeypatch.setattr(analysis, "_CHUNK", 17)
        b = truncation_table([P_EXT, P_PERS], **kw)
        np.testing.assert_array_equal(a.percent, b.percent)
        assert a.hs == (0.25,)
        assert a.I0s == (10.0, 50.0)

    @pytest.mark.parametrize("sets, i0s", [([], [10.0]), ([P_EXT], [])],
                             ids=["no-sets", "no-I0s"])
    def test_empty_inputs_rejected(self, sets, i0s):
        with pytest.raises(ConfigError, match="parameter set and an I0"):
            truncation_table(sets, I0s=i0s, hs=[0.5], n_paths=4, horizon=5.0,
                             base_seed=3)

    @pytest.mark.parametrize("block", [7, 32])
    def test_block_invariant(self, monkeypatch, block):
        # 10, 20, 40 and 80 steps: coarse step sizes end inside a block and
        # sit out the blocks after it
        kw = dict(I0s=[10.0, 90.0], hs=[0.5, 0.25, 2.0**-3, 2.0**-4], n_paths=20,
                  horizon=5.0, base_seed=41)
        a = truncation_table([P_SET2, P_PERS], **kw)
        assert a.percent.any()
        monkeypatch.setattr(analysis, "_BLOCK", block)
        b = truncation_table([P_SET2, P_PERS], **kw)
        assert a.percent.tobytes() == b.percent.tobytes()

    def test_one_call_per_step_size_within_a_block(self, monkeypatch):
        # table4's horizon: 100 to 1,600 steps fit one block, so a chunk steps
        # each step size in a single kernel call
        calls = []
        evolve = analysis.lcm_evolve

        def counting(y0, dw, p, s, record=False, **kwargs):
            calls.append((s.h, dw.shape))
            return evolve(y0, dw, p, s, record, **kwargs)

        monkeypatch.setattr(analysis, "lcm_evolve", counting)
        monkeypatch.setattr(analysis, "_cores", lambda: 1)  # stay in this process
        hs = [2.0**-k for k in range(1, 6)]
        truncation_table([P_SET2, P_PERS], I0s=[10.0, 90.0], hs=hs, n_paths=8,
                         horizon=50.0, base_seed=3)
        assert calls == [(h, (8, round(50.0 / h))) for h in hs]


class TestMilsteinViolationFraction:
    def test_deterministic_and_chunk_invariant(self, monkeypatch):
        # 8,192 steps cross a time block; chunks of 5 split the 24 paths unevenly
        kw = dict(h=2.0**-13, t_final=1.0, n_paths=24, base_seed=31)
        a = milstein_violation_fraction(P_EXT, **kw)
        monkeypatch.setattr(analysis, "_CHUNK", 5)
        b = milstein_violation_fraction(P_EXT, **kw)
        assert a == b == 5 / 24

    @pytest.mark.parametrize("h, t_final, message", [
        (0.0, 5.0, "step size must be finite and positive, got 0.0"),
        (float("nan"), 5.0, "step size must be finite and positive, got nan"),
        (0.25, float("inf"), "t_final must be finite and positive, got inf"),
        (0.25, float("nan"), "t_final must be finite and positive, got nan"),
        (1e-300, 1e300, "t_final 1e+300 is too many steps of 1e-300"),
    ])
    def test_bad_step_or_horizon_is_config_error(self, h, t_final, message):
        # regression: h = 0.0 raised ZeroDivisionError, a NaN or infinite
        # t_final ValueError or OverflowError from round()
        with pytest.raises(ConfigError) as err:
            milstein_violation_fraction(P_EXT, h=h, t_final=t_final, n_paths=4,
                                        base_seed=1)
        assert str(err.value) == message

    @pytest.fixture
    def evolve_calls(self, monkeypatch):
        """(start state per row, steps) of this process's milstein_evolve calls."""
        calls = []
        evolve = analysis.milstein_evolve

        def counting(i0, dw, h, p):
            calls.append((np.broadcast_to(i0, len(dw)).copy(), dw.shape[1]))
            return evolve(i0, dw, h, p)

        monkeypatch.setattr(analysis, "milstein_evolve", counting)
        return calls

    @staticmethod
    @functools.lru_cache
    def full_horizon(p, h, t_final, n_paths, base_seed, block):
        """Violated flags of paths 0 .. n_paths - 1, each stepped to t_final in
        block-step calls, and the calls of a chunk that stops stepping each
        path after the block in which it is violated or exactly 0: (the start
        states of the paths not yet settled, steps), up to the block after
        which none is left."""
        steps = round(t_final / h)
        streams = PathStreams(base_seed, 0, n_paths)
        violated = np.zeros(n_paths, dtype=bool)
        state, live, calls = np.full(n_paths, p.I0), np.ones(n_paths, dtype=bool), []
        for start in range(0, steps, block):
            n = min(block, steps - start)
            if live.any():
                calls.append((state[live], n))
            out = milstein_evolve(state, streams.increments(n, t_final / steps), h, p)
            state, violated = out.i_final, violated | out.violated
            live &= ~(violated | (state == 0.0))
        return violated, calls

    # criterion 6's set dies out, so its paths settle (violated, or exactly 0)
    # long before t_final at these step sizes
    @pytest.mark.parametrize("h, n_paths, t_final, seeds, block", [
        (2.0**-13, 24, 1.0, (31, 606, 9091), None),
        (2.0**-13, 24, 1.0, (31, 606), 7),
        (2.0**-15, 64, 5.0, (606, 1), None),
    ], ids=["2^-13", "2^-13-b7", "2^-15"])
    def test_settled_chunks_stop_with_the_full_horizon_flags(
            self, monkeypatch, evolve_calls, h, n_paths, t_final, seeds, block):
        if block is not None:
            monkeypatch.setattr(analysis, "_VIOLATION_BLOCK", block)
        kw = dict(h=h, t_final=t_final, n_paths=n_paths)
        for seed in seeds:
            ref, calls = self.full_horizon(P_EXT, h, t_final, n_paths, seed,
                                           analysis._VIOLATION_BLOCK)
            evolve_calls.clear()
            flags = analysis._violation_chunk(PathStreams(seed, 0, n_paths), P_EXT,
                                              h, t_final, round(t_final / h))
            np.testing.assert_array_equal(flags, ref)
            # each call steps exactly the paths the reference has not settled,
            # from their states, and the chunk stops at the first chance
            assert [n for _, n in evolve_calls] == [n for _, n in calls]
            for (got, _), (want, _) in zip(evolve_calls, calls):
                np.testing.assert_array_equal(got, want)
            with monkeypatch.context() as m:
                m.setattr(analysis, "_cores", lambda: 1)
                assert milstein_violation_fraction(P_EXT, base_seed=seed, **kw) \
                    == ref.mean()
            with monkeypatch.context() as m:  # 3 ranges in chunks of 5
                TestShardedRuns.shard(m, 3, chunk=5)
                assert milstein_violation_fraction(P_EXT, base_seed=seed, **kw) \
                    == ref.mean()

    @pytest.mark.parametrize("p", [P_EXT, P_PERS], ids=["dies-out", "persists"])
    def test_stepping_stops_once_every_path_settles(self, monkeypatch, evolve_calls, p):
        # P_PERS paths never reach 0 or leave (0, N) at h = 2^-15, so all 64
        # step every block of the 163,840 steps
        monkeypatch.setattr(analysis, "_cores", lambda: 1)
        frac = milstein_violation_fraction(p, h=2.0**-15, t_final=5.0, n_paths=64,
                                           base_seed=606)
        block = analysis._VIOLATION_BLOCK
        shapes = [(len(i0), n) for i0, n in evolve_calls]
        if p is P_PERS:
            assert shapes == [(64, block)] * (163_840 // block)
        else:
            _, calls = self.full_horizon(p, 2.0**-15, 5.0, 64, 606, block)
            assert shapes == [(len(i0), n) for i0, n in calls]
            assert len(shapes) < 163_840 // block and shapes[-1][0] < 64
        assert frac == 0.0


def assert_no_children():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestShardedRuns:
    """Runs cut into contiguous path ranges over forked worker processes
    equal the in-process run bit for bit, for even and uneven cuts and for
    chunks smaller than a range."""

    @pytest.fixture
    def submitted(self, monkeypatch):
        """The (lo, hi) ranges handed to forked workers, in fork order."""
        seen = []
        fork_walk = analysis._fork_walk

        def counting(lo, hi, *args):
            seen.append((lo, hi))
            return fork_walk(lo, hi, *args)

        monkeypatch.setattr(analysis, "_fork_walk", counting)
        return seen

    @staticmethod
    def shard(monkeypatch, n, chunk=None):
        """Let the next runs use n worker processes, whatever their size."""
        monkeypatch.setattr(analysis, "_cores", lambda: n)
        monkeypatch.setattr(analysis, "_SHARD_FLOOR", 0)
        if chunk is not None:
            monkeypatch.setattr(analysis, "_CHUNK", chunk)

    @pytest.mark.parametrize("n_paths, n, chunk, cuts", [
        (7, 3, None, [(0, 2), (2, 4), (4, 7)]),
        (30, 2, 7, [(0, 15), (15, 30)]),
    ])
    def test_strong_error(self, submitted, monkeypatch, n_paths, n, chunk, cuts):
        kw = dict(levels=[2.0**-5, 2.0**-4], n_paths=n_paths, base_seed=9,
                  t_final=1.0)
        s_ref = SchemeParams(h=2.0**-8, alpha=0.1, theta=2.0)
        a = strong_error(P_CONV1, s_ref, **kw)
        assert submitted == []
        self.shard(monkeypatch, n, chunk)
        b = strong_error(P_CONV1, s_ref, **kw)
        assert submitted == cuts
        assert a.errors == b.errors

    @pytest.mark.parametrize("n_paths, n, chunk, cuts", [
        (7, 3, None, [(0, 2), (2, 4), (4, 7)]),
        (64, 2, 17, [(0, 32), (32, 64)]),
    ])
    def test_truncation_table(self, submitted, monkeypatch, n_paths, n, chunk, cuts):
        kw = dict(I0s=[10.0, 50.0], hs=[0.5, 0.25], n_paths=n_paths,
                  horizon=5.0, base_seed=11)
        a = truncation_table([P_EXT, P_PERS], **kw)
        assert submitted == []
        self.shard(monkeypatch, n, chunk)
        b = truncation_table([P_EXT, P_PERS], **kw)
        assert submitted == cuts
        assert a.percent.tobytes() == b.percent.tobytes()

    def test_milstein_violation_fraction(self, submitted, monkeypatch):
        # 8,192 steps cross a time block; 3 ranges of 8 paths in chunks of 5
        kw = dict(h=2.0**-13, t_final=1.0, n_paths=24, base_seed=31)
        a = milstein_violation_fraction(P_EXT, **kw)
        assert submitted == []
        self.shard(monkeypatch, 3, chunk=5)
        b = milstein_violation_fraction(P_EXT, **kw)
        assert submitted == [(0, 8), (8, 16), (16, 24)]
        assert a == b == 5 / 24

    def test_dynamics_verdicts(self, submitted, monkeypatch):
        # 30 persistence paths: 2 ranges of 15 in chunks of 7
        s = SchemeParams(h=0.25, alpha=0.1, theta=2.0)
        a = dynamics_verdicts(P_PERS, s, 50.0, 30, base_seed=5001)
        assert submitted == []
        self.shard(monkeypatch, 2, chunk=7)
        assert dynamics_verdicts(P_PERS, s, 50.0, 30, base_seed=5001) == a
        assert submitted == [(0, 15), (15, 30)]

    def test_no_more_ranges_than_paths(self, submitted, monkeypatch):
        kw = dict(h=2.0**-2, t_final=5.0, n_paths=2, base_seed=606)
        a = milstein_violation_fraction(P_EXT, **kw)
        self.shard(monkeypatch, 3)
        assert milstein_violation_fraction(P_EXT, **kw) == a
        assert submitted == [(0, 1), (1, 2)]
        # no paths is no range at all: rejected before any worker starts
        with pytest.raises(ConfigError, match="n_paths"):
            milstein_violation_fraction(P_EXT, **dict(kw, n_paths=0))
        assert submitted == [(0, 1), (1, 2)]

    def test_worker_exception_reaches_caller(self, submitted, monkeypatch):
        def fault(*args, **kwargs):
            raise ValueError("injected fault")

        monkeypatch.setattr(analysis, "lcm_evolve", fault)
        self.shard(monkeypatch, 2)
        with pytest.raises(ValueError, match="injected fault") as info:
            truncation_table([P_EXT], I0s=[10.0], hs=[0.5], n_paths=8,
                             horizon=5.0, base_seed=3)
        assert len(submitted) == 2
        # the cause is the worker's own traceback, down to the faulting call
        assert isinstance(info.value.__cause__, analysis._WorkerTraceback)
        assert "in fault" in str(info.value.__cause__)
        assert_no_children()

    @staticmethod
    def paths_as_ranges(monkeypatch):
        """Hand each chunk worker its (lo, hi) instead of its streams."""
        monkeypatch.setattr(analysis, "PathStreams", lambda seed, lo, hi: (lo, hi))

    def test_results_join_in_range_order(self, submitted, monkeypatch):
        self.paths_as_ranges(monkeypatch)
        self.shard(monkeypatch, 2, chunk=3)
        assert analysis._over_chunks(lambda paths: paths, 8, 0, 0) == [
            (0, 3), (3, 4), (4, 7), (7, 8)]
        assert submitted == [(0, 4), (4, 8)]
        assert_no_children()

    def test_worker_that_dies_is_an_error_naming_its_range(self, submitted,
                                                           monkeypatch):
        # the second range's child exits without sending a result
        def worker(paths):
            if paths[0] >= 4:
                os._exit(3)
            return paths

        self.paths_as_ranges(monkeypatch)
        self.shard(monkeypatch, 2)
        with pytest.raises(RuntimeError, match=r"paths 4 \.\. 7 exited with code 3"):
            analysis._over_chunks(worker, 8, 0, 0)
        assert submitted == [(0, 4), (4, 8)]
        assert_no_children()

    def test_unpicklable_exception_reaches_caller(self, monkeypatch):
        # a class local to this test cannot be pickled back: it arrives as a
        # RuntimeError that quotes it, still caused by the worker's traceback
        class LocalFault(Exception):
            pass

        def worker(paths):
            raise LocalFault("not sent")

        self.paths_as_ranges(monkeypatch)
        self.shard(monkeypatch, 2)
        with pytest.raises(RuntimeError, match=r"LocalFault\('not sent'\)") as info:
            analysis._over_chunks(worker, 8, 0, 0)
        assert "in worker" in str(info.value.__cause__)
        assert_no_children()

    def test_failure_kills_the_other_workers(self, monkeypatch):
        # the first range's child dies while the second's would sleep on
        def worker(paths):
            if paths[0] < 4:
                os._exit(3)
            time.sleep(60)

        self.paths_as_ranges(monkeypatch)
        self.shard(monkeypatch, 2)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match=r"paths 0 \.\. 3 exited with code 3"):
            analysis._over_chunks(worker, 8, 0, 0)
        assert time.monotonic() - start < 30
        assert_no_children()

    def test_interrupt_kills_every_worker(self, monkeypatch):
        # an interrupt while the parent waits on its children's pipes; a
        # forked child inherits no timer, so only the parent is interrupted
        def interrupt(signum, frame):
            raise KeyboardInterrupt

        self.paths_as_ranges(monkeypatch)
        self.shard(monkeypatch, 2)
        previous = signal.signal(signal.SIGALRM, interrupt)
        start = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(KeyboardInterrupt):
                analysis._over_chunks(lambda paths: time.sleep(60), 8, 0, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 30
        assert_no_children()

    def test_small_runs_stay_in_process(self, submitted, monkeypatch):
        # criterion 6's coarse run: 1,000 paths x 20 steps is below the floor
        monkeypatch.setattr(analysis, "_cores", lambda: 2)
        milstein_violation_fraction(P_EXT, h=2.0**-2, t_final=5.0,
                                    n_paths=1000, base_seed=606)
        assert submitted == []


class TestFrozenOutputs:
    """Small runs whose outputs were recorded, as repr floats, from the code
    that drew every path whole before stepping it. Time blocks must not move
    a bit: these runs cross block boundaries (16,384 fine steps with a level
    coarser than a block; 40,960 direct-Milstein steps; 1,600 truncation
    steps, run again in 32-step blocks since they fit one default block) and
    every coarser truncation cell reads a prefix of one draw. Floats that
    pass through np.exp have one value per exp loop of numpy (AVX512_EXP);
    the baseline loop's were recorded with the AVX-512 loops switched off."""

    # the frozen tests whose values depend on the exp loop
    EXP_DEPENDENT = [
        "tests/test_analysis.py::TestFrozenOutputs::test_strong_error",
        "tests/test_cli.py::TestDynamics::test_persistence_summaries_are_frozen",
    ]

    def test_exp_dependent_values_hold_on_baseline_loop(self):
        # rerun them where numpy cannot take its AVX-512 loops, so that both
        # sets stay checked on a host that has them
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        probe = subprocess.run(
            [sys.executable, "-c", "import numpy as np; print(np._core."
             "_multiarray_umath.__cpu_features__['AVX512_SKX'])"],
            capture_output=True, text=True, timeout=60, env=env)
        assert probe.stdout.strip() == "False", probe.stderr
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             *self.EXP_DEPENDENT], cwd=ROOT, capture_output=True, text=True,
            timeout=300, env=env)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "3 passed" in proc.stdout

    def test_strong_error(self):
        table = strong_error(P_CONV1, SchemeParams(h=2.0**-13, alpha=0.1, theta=2.0),
                             levels=[2.0**-11, 2.0**-6, 2.0**-1, 1.0], n_paths=12,
                             base_seed=2468, t_final=2.0)
        first = 0.0003172310466385858 if AVX512_EXP else 0.00031723104663858537
        assert table.errors == (first, 0.006434884076443843,
                                0.23770991358805663, 1.0797136722337484)

    def test_milstein_violation_fraction(self):
        kw = dict(t_final=5.0, n_paths=64, base_seed=606)
        assert milstein_violation_fraction(P_EXT, h=2.0**-13, **kw) == 0.3125
        assert milstein_violation_fraction(P_EXT, h=2.0**-2, **kw) == 1.0

    def test_truncation_table(self, monkeypatch):
        expected = [
            0.0, 50.0, 50.0, 0.0, 50.0, 50.0,
            0.0, 0.4895833333333333, 25.958333333333332,
            0.0, 0.4791666666666667, 25.375,
            0.0, 0.0, 0.0, 0.11197916666666667, 0.20833333333333334,
            1.8333333333333333,
        ]
        for block in (analysis._BLOCK, 32):
            monkeypatch.setattr(analysis, "_BLOCK", block)
            tbl = truncation_table([P_SET2, P_PERS, P_EXT], I0s=[10.0, 90.0],
                                   hs=[2.0**-5, 2.0**-3, 2.0**-1], n_paths=24,
                                   horizon=50.0, base_seed=7001)
            assert tbl.percent.ravel().tolist() == expected


class TestDynamicsVerdicts:
    @pytest.mark.parametrize("p, t_final, small", [
        (P_PERS, 50.0, False), (P_EXT, 5.0, False), (P_PERS, 50.0, True),
        (P_EXT, 5.0, True)], ids=["p0-50.0", "p1-5.0", "p0-50.0-small", "p1-5.0-small"])
    def test_rows_equal_per_path_runs(self, monkeypatch, p, t_final, small):
        # each row must equal classify_dynamics on lcm_simulate along the
        # path's own draw; small budgets put a chunk boundary (16 paths) inside
        # these 30 paths, and tile boundaries (64 steps at 16 rows) inside the
        # 200-step recordings
        if small:
            monkeypatch.setattr(analysis, "_CHUNK", 16)
            monkeypatch.setattr(schemes, "_TILE_DOUBLES", 1 << 10)
        s = SchemeParams(h=0.25, alpha=0.1, theta=2.0)
        steps = round(t_final / s.h)
        verdicts = dynamics_verdicts(p, s, t_final, 30, base_seed=5001)
        assert len(verdicts) == 30
        for j, verdict in enumerate(verdicts):
            grid = generate(base_seed=5001, path_index=j, t_final=t_final,
                            fine_steps=steps)
            assert verdict == classify_dynamics(lcm_simulate(coarsen(grid, 0), p, s), p)

    def test_dynamics_preserved_past_half_step(self):
        # the paper's "any h > 0", past criteria 4 and 5's h = 2^-1: at h = 2^0
        # .. 2^4 the persistence set stays Persistent at 0.9 x
        # persistence_alpha_bound; at 1.1 x the bound (an alpha <= 1 from h = 2^1)
        # paths sit at the reset value, none Persistent from h = 2^2 on (22 of
        # 100 still are at 2^1); the extinction set dies out at every h
        for e in range(5):
            h = 2.0**e
            bound = persistence_alpha_bound(P_PERS, h, 2.0)
            below = SchemeParams(h=h, alpha=0.9 * bound, theta=2.0)
            verdicts = dynamics_verdicts(P_PERS, below, 256.0, 100, base_seed=5001)
            assert sum(v.kind == "Persistent" for v in verdicts) >= 95, h
            if e >= 2:
                above = SchemeParams(h=h, alpha=1.1 * bound, theta=2.0)
                verdicts = dynamics_verdicts(P_PERS, above, 256.0, 100, base_seed=5001)
                assert not any(v.kind == "Persistent" for v in verdicts), h
            s = SchemeParams(h=h, alpha=0.1, theta=2.0)
            verdicts = dynamics_verdicts(P_EXT, s, 256.0, 100, base_seed=4001)
            assert sum(v.kind == "Extinct" for v in verdicts) >= 95, h

    def test_horizon_not_whole_steps_rejected(self):
        with pytest.raises(ValueError):
            dynamics_verdicts(P_PERS, SchemeParams(h=0.3, alpha=0.1, theta=2.0),
                              1.0, 2, base_seed=1)

    def test_short_horizon_rejected(self):
        with pytest.raises(ConfigError, match="too short"):
            dynamics_verdicts(P_PERS, SchemeParams(h=0.25, alpha=0.1, theta=2.0),
                              0.5, 2, base_seed=1)

    @pytest.mark.parametrize("steps", [49, 98, 103, 107, 161, 187, 196, 197])
    def test_horizon_of_one_accepted_where_steps_times_h_rounds_below(self, steps):
        # steps x (1 / steps) is 0.9999999999999999 here, which is still the
        # minimum horizon of 1; the per-path route must agree
        s = SchemeParams(h=1.0 / steps, alpha=0.1, theta=2.0)
        assert steps * s.h < 1.0
        verdicts = dynamics_verdicts(P_PERS, s, 1.0, 3, base_seed=1)
        for j, verdict in enumerate(verdicts):
            grid = generate(base_seed=1, path_index=j, t_final=1.0, fine_steps=steps)
            traj = lcm_simulate(coarsen(grid, 0), P_PERS, s)
            assert traj.times[-1] < 1.0
            assert verdict == classify_dynamics(traj, P_PERS)

    def test_short_horizon_rejected_before_stepping(self, monkeypatch):
        # the horizon is checked once, before any block is drawn or stepped
        calls = []
        evolve = analysis.lcm_evolve

        def counting(y0, dw, p, s, record=False, **kwargs):
            calls.append(dw.shape)
            return evolve(y0, dw, p, s, record, **kwargs)

        monkeypatch.setattr(analysis, "lcm_evolve", counting)
        monkeypatch.setattr(analysis, "_cores", lambda: 1)  # stay in this process
        with pytest.raises(ConfigError, match="too short"):
            dynamics_verdicts(P_PERS, SchemeParams(h=2.0**-12, alpha=0.1, theta=2.0),
                              0.5, 300, base_seed=1)
        assert calls == []

    @pytest.mark.parametrize("p", [P_PERS, P_EXT], ids=["persistence", "extinction"])
    def test_only_blocks_reaching_the_tail_are_recorded(self, monkeypatch, p):
        # 400 steps, second half from state 200: blocks of at most
        # _DYNAMICS_BLOCK steps, recorded from the one that holds state 200
        # on, and never in the extinction regime, which counts no crossings
        calls = []
        evolve = analysis.lcm_evolve

        def spy(y0, dw, p, s, record=False, steps_done=0):
            calls.append((steps_done, dw.shape[1], record))
            return evolve(y0, dw, p, s, record, steps_done)

        monkeypatch.setattr(analysis, "lcm_evolve", spy)
        monkeypatch.setattr(analysis, "_cores", lambda: 1)  # stay in this process
        s = SchemeParams(h=0.25, alpha=0.1, theta=2.0)
        verdicts = dynamics_verdicts(p, s, 100.0, 30, base_seed=5001)
        block = analysis._DYNAMICS_BLOCK
        assert [(start, n) for start, n, _ in calls] == [
            (start, min(block, 400 - start)) for start in range(0, 400, block)]
        persistent = p is P_PERS
        assert [record for *_, record in calls] == [
            persistent and start + n >= 200 for start, n, _ in calls]
        assert sum(v.kind == ("Persistent" if persistent else "Extinct")
                   for v in verdicts) == 30

    @pytest.mark.parametrize("n_paths", [0, -3])
    def test_non_positive_paths_rejected(self, n_paths):
        with pytest.raises(ConfigError, match="n_paths must be positive"):
            dynamics_verdicts(P_PERS, SchemeParams(h=0.25, alpha=0.1, theta=2.0),
                              5.0, n_paths, base_seed=1)


class TestCsvWriters:
    def test_error_table(self):
        table = ErrorTable((0.25, 0.5), (0.01, 0.02), n_paths=4, h_reference=0.25)
        buf = io.StringIO()
        write_error_table(table, buf)
        assert buf.getvalue() == "h,error\n0.25,0.01\n0.5,0.02\n"

    def test_rate_fit(self):
        buf = io.StringIO()
        write_rate_fit(RateFit(q=1.0047, residual=0.012), buf)
        assert buf.getvalue() == "q,residual\n1.0047,0.012\n"

    def test_truncation(self):
        p2 = ModelParams(N=100, beta=0.42, sigma=0.01, mu_plus_gamma=10.0, I0=10.0)
        tbl = truncation_table([p2], I0s=[10.0], hs=[0.5], n_paths=16,
                               horizon=2.0, base_seed=0)
        buf = io.StringIO()
        write_truncation_table(tbl, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "set,I0,h,percent"
        assert len(lines) == 2
        assert lines[1].startswith("1,10,0.5,")

    def test_dynamics_summary(self):
        buf = io.StringIO()
        rows = [(0, classify_dynamics(
            Trajectory(times=np.arange(9) * 0.25,
                       values=np.full(9, 1e-12),
                       log_values=np.full(9, -90.0)),
            P_EXT))]
        write_dynamics_summary(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "seed,kind,lyapunov,crossings,terminal"
        assert lines[1].startswith("0,Extinct,")


def whole_path_csv(p, s, t_final, steps, seed, direct):
    """write_trajectory's CSV from one whole-horizon record=True call on the
    generate draw, formatted row by row."""
    h = t_final / steps
    dw = generate(seed, 0, t_final, steps).increments[None, :]
    t = np.arange(steps + 1) * h
    if direct:
        i = milstein_evolve(p.I0, dw, h, p, record=True).i_snaps[0]
        return "t,I\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(t, i))
    out = lcm_evolve(math.log(p.I0), dw, p, s, record=True)
    y = out.y_snaps[0]
    flags = np.concatenate([[False], out.flags[0]])
    return "t,I,Y,truncated\n" + "".join(
        f"{a:.17g},{b:.17g},{c:.17g},{int(d)}\n"
        for a, b, c, d in zip(t, np.exp(y), y, flags))


class TestWriteTrajectory:
    # (params, scheme, t_final, steps, seed, direct). At h = 2^-1 the
    # log-space path truncates every other step, in every 7-step block; the
    # direct path from I0 = 50 at h = 2^-10 leaves [0, N] at step 4 and turns
    # NaN at step 13, in its second 7-step block
    LCM = (ModelParams(N=100, beta=0.5, sigma=0.03, mu_plus_gamma=20.0, I0=10.0),
           SchemeParams(h=0.5, alpha=0.1, theta=2.0), 12.0, 24, 0, False)
    DIRECT = (ModelParams(N=100, beta=0.42, sigma=0.9, mu_plus_gamma=10.0, I0=50.0),
              SchemeParams(h=2.0**-10, alpha=0.1, theta=2.0), 24 / 1024, 24, 2, True)

    @staticmethod
    def written(tmp_path, case):
        out = tmp_path / "traj.csv"
        write_trajectory(*case, out=str(out))
        return out.read_text()

    @pytest.mark.parametrize("block", [7, None])
    @pytest.mark.parametrize("case", ["LCM", "DIRECT"])
    def test_blocks_equal_one_whole_horizon_call(self, tmp_path, monkeypatch, case,
                                                  block):
        case = getattr(self, case)
        if block:
            monkeypatch.setattr(analysis, "_BLOCK", block)
        text = self.written(tmp_path, case)
        assert text == whole_path_csv(*case)
        rows = [row.split(",") for row in text.splitlines()[1:]]
        if case[-1]:
            first_nan = next(k for k, row in enumerate(rows) if row[1] == "nan")
            assert first_nan == 13 and rows[-1][1] == "nan"
        else:
            assert {row[3] for row in rows[8:15]} == {"0", "1"}

    def test_lcm_layout(self, tmp_path):
        lines = self.written(tmp_path, (P_CONV1, SchemeParams(h=0.125, alpha=0.1,
                                                               theta=2.0),
                                        0.5, 4, 1, False)).splitlines()
        assert lines[0] == "t,I,Y,truncated"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0
        assert first[3] == "0"

    def test_milstein_layout(self, tmp_path):
        lines = self.written(tmp_path, (P_CONV1, SchemeParams(h=0.125, alpha=0.1,
                                                               theta=2.0),
                                        0.5, 4, 1, True)).splitlines()
        assert lines[0] == "t,I"
        assert len(lines) == 6

    def test_seventeen_digit_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setattr(analysis, "_BLOCK", 7)
        p, s, t_final, steps, seed, _ = self.LCM
        table = np.loadtxt(io.StringIO(self.written(tmp_path, self.LCM)),
                           delimiter=",", skiprows=1)
        out = lcm_evolve(math.log(p.I0), generate(seed, 0, t_final, steps)
                         .increments[None, :], p, s, record=True)
        np.testing.assert_array_equal(table[:, 2], out.y_snaps[0])
        np.testing.assert_array_equal(table[:, 1], np.exp(out.y_snaps[0]))
        np.testing.assert_array_equal(table[:, 0], np.arange(steps + 1) * 0.5)

