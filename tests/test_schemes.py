"""LCM and direct-Milstein steppers: hand oracles, per-step references,
domain guarantees (by property, on derandomized hypothesis draws), explosion
handling.

Hand-substitution oracles were derived in tools/derive_oracles.py before the
steppers were written.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sislab import schemes
from sislab.model import (
    ModelParams,
    PreconditionError,
    diffusion_original,
    drift_original,
    log_coeffs,
)
from sislab.paths import PathStreams, coarsen, generate
from sislab.schemes import SchemeParams, lcm_evolve, lcm_simulate, milstein_evolve

P_CONV1 = ModelParams(N=10, beta=0.5, sigma=0.2, mu_plus_gamma=4.0, I0=1.0)
P_EXT = ModelParams(N=100, beta=0.42, sigma=0.9, mu_plus_gamma=10.0, I0=90.0)

# oracle: three drift-only direct-Milstein iterates from I0=1 (dW=0, h=0.25)
MILSTEIN_DRIFT_ITERATES = (0.765, 0.58390365375, 0.44446054581544199)

# oracle: closed-form probability that one direct-Milstein step leaves [0, N]
# at h=2^-14, P_EXT parameters, keyed by the starting state. At I=50 the
# Milstein correction vanishes (b' = 0); I=65 exercises it.
MILSTEIN_EXIT_H14 = {
    50.0: 0.0044489667724695118780649764230195795,
    65.0: 0.0018779205031947453364875848139231193,
}


class TestSchemeParams:
    def test_validation(self):
        SchemeParams(h=0.25, alpha=1.0, theta=1.5)
        with pytest.raises(ValueError):
            SchemeParams(h=0.25, alpha=0.0, theta=2.0)
        with pytest.raises(ValueError):
            SchemeParams(h=0.25, alpha=1.1, theta=2.0)
        with pytest.raises(ValueError):
            SchemeParams(h=0.25, alpha=0.5, theta=1.0)
        with pytest.raises(ValueError):
            SchemeParams(h=0.0, alpha=0.5, theta=2.0)

    @pytest.mark.parametrize("h, theta", [(1e200, 2.0), (1e250, 1.5), (math.inf, 2.0),
                                          (1e160, 2.0)])
    def test_rejects_overflowing_truncation_shift(self, h, theta):
        # regression: h**theta overflowed inside lcm_evolve, after the run began
        with pytest.raises(ValueError, match="too large"):
            SchemeParams(h=h, alpha=0.1, theta=theta)

    def test_accepts_large_finite_shift(self):
        s = SchemeParams(h=1e100, alpha=1.0, theta=3.0)
        assert math.isfinite(s.alpha * s.h**s.theta)


def lcm_one_step(y, dw, p, s):
    """One log-space step from state y: a one-step, 1-row kernel call
    (dZeta = (dw^2 - h) / 2 is rebuilt inside). Returns (y_next, truncated)."""
    out = lcm_evolve(y, np.array([[dw]]), p, s, record=True)
    return float(out.y_final[0]), bool(out.flags[0, 0])


class TestLcmStep:
    S = SchemeParams(h=0.25, alpha=0.1, theta=2.0)

    def test_hand_substitution(self):
        # oracle: Ybar = 0 + (-1.12)(0.25) + 0 + (-0.36)(-0.125) = -0.235
        y1, truncated = lcm_one_step(0.0, 0.0, P_CONV1, self.S)
        assert y1 == pytest.approx(-0.235, rel=1e-13)
        assert not truncated

    def test_truncation_branch(self):
        # the one-step map is a downward parabola in dW (gg' < 0); its vertex
        # dW = 5 gives Ybar = -0.235 + 9 - 4.5 = 4.265 >= log 10, forcing a reset
        y1, truncated = lcm_one_step(0.0, 5.0, P_CONV1, self.S)
        assert truncated
        assert y1 == math.log(P_CONV1.N) - self.S.alpha * self.S.h**self.S.theta
        assert y1 < math.log(P_CONV1.N)

    def test_one_step_consistency(self):
        # below the boundary the step IS the unclamped Milstein expression
        rng = np.random.default_rng(11)
        for _ in range(200):
            y = rng.uniform(-8.0, 1.5)
            dw = rng.normal(0.0, 0.5)
            dz = 0.5 * (dw * dw) - 0.125
            fy, gy, ggy = log_coeffs(y, P_CONV1)
            expected = y + fy * self.S.h + gy * dw + ggy * dz
            got, truncated = lcm_one_step(y, dw, P_CONV1, self.S)
            if expected < math.log(P_CONV1.N):
                assert not truncated
                assert got == expected
            else:
                assert truncated

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            lcm_one_step(float("nan"), 0.0, P_CONV1, self.S)
        with pytest.raises(ValueError):
            lcm_one_step(0.0, float("inf"), P_CONV1, self.S)

    def test_single_step_mean(self):
        # E[Y_1] = Y_0 + f(Y_0) h since dW and dZeta are centered; 5 SE window
        n = 1_000_000
        rng = np.random.default_rng(555)
        dw = rng.normal(0.0, math.sqrt(self.S.h), size=(n, 1))
        out = lcm_evolve(0.0, dw, P_CONV1, self.S, record=True)
        y1 = out.y_snaps[:, 1]
        fy, _, _ = log_coeffs(0.0, P_CONV1)
        se = y1.std() / math.sqrt(n)
        assert abs(y1.mean() - fy * self.S.h) < 5.0 * se

    @pytest.mark.parametrize("h", [2.0**-20, 2.0**-24, 2.0**-30])
    def test_reset_stays_below_log_n_at_fine_steps(self, h):
        # regression: from h = 2^-24, alpha h^theta is under half an ulp of
        # log 100, and the reset once set Y = log N exactly (I = 100.00000000000004).
        # dW at the vertex of the one-step parabola forces a truncation at any h.
        s = SchemeParams(h=h, alpha=0.1, theta=2.0)
        _, g0, gg0 = log_coeffs(0.0, P_EXT)
        y1, truncated = lcm_one_step(0.0, float(-g0 / gg0), P_EXT, s)
        assert truncated
        assert y1 < math.log(P_EXT.N)


class TestLcmSimulate:
    def test_domain_preserved_illustrative(self):
        # 100 paths at a coarse step: every state strictly inside (0, N)
        s = SchemeParams(h=0.5, alpha=0.1, theta=2.0)
        log_n = math.log(P_EXT.N)
        for idx in range(100):
            grid = generate(base_seed=900, path_index=idx, t_final=4.0, fine_steps=8)
            traj = lcm_simulate(coarsen(grid, 0), P_EXT, s)
            assert np.all(np.isfinite(traj.log_values))
            assert np.all(traj.log_values < log_n)
            assert np.all(traj.values < P_EXT.N)
            np.testing.assert_array_equal(traj.values, np.exp(traj.log_values))

    def test_truncation_count_by_recomputation(self):
        s = SchemeParams(h=0.25, alpha=0.1, theta=2.0)
        p = ModelParams(N=100, beta=0.42, sigma=0.01, mu_plus_gamma=10.0, I0=10.0)
        grid = generate(base_seed=31, path_index=0, t_final=16.0, fine_steps=64)
        inc = coarsen(grid, 0)
        traj = lcm_simulate(inc, p, s)
        count = 0
        y = math.log(p.I0)
        for k in range(len(inc.dW)):
            y, truncated = lcm_one_step(y, inc.dW[k], p, s)
            count += truncated
        assert traj.truncation_count == count
        assert traj.truncation_count == int(traj.truncated.sum())
        assert traj.truncation_count > 0  # this parameter set truncates often
        assert y == traj.log_values[-1]  # scalar and batch routes agree exactly

    def test_accepts_grid_directly(self):
        grid = generate(base_seed=1, path_index=0, t_final=1.0, fine_steps=16)
        s = SchemeParams(h=grid.h_fine, alpha=0.1, theta=2.0)
        a = lcm_simulate(grid, P_CONV1, s)
        b = lcm_simulate(coarsen(grid, 0), P_CONV1, s)
        np.testing.assert_array_equal(a.log_values, b.log_values)

    def test_step_size_mismatch_rejected(self):
        grid = generate(1, 0, 1.0, 16)
        with pytest.raises(ValueError):
            lcm_simulate(coarsen(grid, 0), P_CONV1, SchemeParams(h=0.5, alpha=0.1, theta=2.0))

    def test_times_and_initial_state(self):
        grid = generate(1, 0, 1.0, 8)
        s = SchemeParams(h=grid.h_fine, alpha=0.1, theta=2.0)
        traj = lcm_simulate(grid, P_CONV1, s)
        np.testing.assert_allclose(traj.times, np.arange(9) * 0.125, rtol=0, atol=0)
        assert traj.values[0] == P_CONV1.I0
        assert traj.log_values[0] == math.log(P_CONV1.I0)
        assert not traj.truncated[0]

    def test_coupling_reproducibility(self):
        # level-L run is a pure function of (base_seed, path_index, L)
        s0 = SchemeParams(h=2.0**-6, alpha=0.1, theta=2.0)
        runs = []
        for _ in range(2):
            grid = generate(base_seed=77, path_index=5, t_final=1.0, fine_steps=64)
            for level in (0, 2):
                h = grid.h_fine * 2**level
                s = SchemeParams(h=h, alpha=0.1, theta=2.0)
                runs.append(lcm_simulate(coarsen(grid, level), P_CONV1, s).values)
        np.testing.assert_array_equal(runs[0], runs[2])
        np.testing.assert_array_equal(runs[1], runs[3])


class TestLcmEvolveBatch:
    def test_matches_scalar_route(self):
        s = SchemeParams(h=0.125, alpha=0.1, theta=2.0)
        dw = np.vstack([generate(8, i, 1.0, 8).increments for i in range(5)])
        out = lcm_evolve(math.log(P_EXT.I0), dw, P_EXT, s, record=True)
        for i in range(5):
            y = math.log(P_EXT.I0)
            for k in range(8):
                y, _ = lcm_one_step(y, dw[i, k], P_EXT, s)
            assert y == out.y_snaps[i, -1]

    def test_truncation_counts(self):
        p = ModelParams(N=100, beta=0.42, sigma=0.01, mu_plus_gamma=10.0, I0=10.0)
        s = SchemeParams(h=0.25, alpha=0.1, theta=2.0)
        dw = np.vstack([generate(21, i, 8.0, 32).increments for i in range(4)])
        out = lcm_evolve(math.log(p.I0), dw, p, s, record=True)
        np.testing.assert_array_equal(out.trunc_counts, out.flags.sum(axis=1))
        assert out.trunc_counts.min() > 0

    def test_no_steps(self):
        # no tile runs: the start states are the only record
        p, s = P_EXT, SchemeParams(h=0.25, alpha=0.1, theta=2.0)
        y0 = np.array([-1.0, 0.5, 4.0])
        out = lcm_evolve(y0, np.empty((3, 0)), p, s, record=True)
        np.testing.assert_array_equal(out.y_final, y0)
        np.testing.assert_array_equal(out.y_snaps, y0[:, None])
        assert out.flags.shape == (3, 0)
        np.testing.assert_array_equal(out.trunc_counts, np.zeros(3))


def lcm_reference(y0, dw, p, s):
    """The log-space scheme one step at a time: the Milstein step on Y from
    log_coeffs, then any state at or above log N reset to log N - alpha h^theta,
    or to the double just below log N if that shift rounds away. Returns
    (every state, truncation flags)."""
    log_n = math.log(p.N)
    reset = min(log_n - s.alpha * s.h**s.theta, math.nextafter(log_n, -math.inf))
    y = np.broadcast_to(np.asarray(y0, dtype=np.float64), dw.shape[:1])
    states, flags = [y], []
    for w in dw.T:
        fy, gy, ggy = log_coeffs(y, p)
        ybar = y + fy * s.h + gy * w + ggy * (0.5 * (w * w) - 0.5 * s.h)
        flags.append(ybar >= log_n)
        y = np.where(flags[-1], reset, ybar)
        states.append(y)
    return np.stack(states, axis=1), np.array(flags).T


class TestLcmEvolveReference:
    """lcm_evolve equals the per-step reference bit for bit, at every width,
    step count, split point, and with and without recording."""

    # sigma = 0.01 truncates about every other step at h = 1/4; P_CONV1 from
    # I = 1 at h = 2^-4 never comes near log N
    CASES = {
        "truncating": (
            ModelParams(N=100, beta=0.42, sigma=0.01, mu_plus_gamma=10.0, I0=10.0),
            SchemeParams(h=0.25, alpha=0.1, theta=2.0)),
        "inside": (P_CONV1, SchemeParams(h=2.0**-4, alpha=0.1, theta=2.0)),
    }

    @classmethod
    def case(cls, name, width, steps):
        p, s = cls.CASES[name]
        rng = np.random.default_rng(100 * width + steps)
        dw = rng.normal(0.0, math.sqrt(s.h), size=(width, steps))
        y0 = math.log(p.I0) + rng.uniform(-1.0, 1.0, size=width)
        return p, s, y0, dw

    # at the default budgets 65 and 130 rows of 37 or 200 steps end in a
    # partial 64-path slab
    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("steps", [1, 2, 37, 200])
    @pytest.mark.parametrize("width", [1, 7, 65, 128, 130])
    def test_matches_per_step_reference(self, name, width, steps):
        p, s, y0, dw = self.case(name, width, steps)
        ref, flags = lcm_reference(y0, dw, p, s)
        for record in (False, True):
            out = lcm_evolve(y0, dw, p, s, record=record)
            np.testing.assert_array_equal(out.y_final, ref[:, -1])
            np.testing.assert_array_equal(out.trunc_counts, flags.sum(axis=1))
            if record:
                np.testing.assert_array_equal(out.y_snaps, ref)
                np.testing.assert_array_equal(out.flags, flags)
            else:
                assert out.y_snaps is None and out.flags is None
        if name == "inside":
            assert not flags.any()
        elif width * steps >= 37:
            assert flags.any()

    @pytest.mark.parametrize("k", [1, 36, 100])
    def test_split_and_resume_matches_reference(self, k):
        p, s, y0, dw = self.case("truncating", 7, 200)
        ref, flags = lcm_reference(y0, dw, p, s)
        a = lcm_evolve(y0, dw[:, :k], p, s, record=True)
        b = lcm_evolve(a.y_final, dw[:, k:], p, s, record=True)
        np.testing.assert_array_equal(np.hstack([a.y_snaps, b.y_snaps[:, 1:]]), ref)
        np.testing.assert_array_equal(np.hstack([a.flags, b.flags]), flags)

    # lcm_evolve steps in tiles and records once per tile; as in
    # TestMilsteinEvolveTiles, a small budget puts tile edges inside these runs
    BUDGET = 1 << 10  # row-steps per tile in these tests: tiles of 1024, 146, 8
    # and a small transposing budget, so that slab edges fall inside them too:
    # 65 and 130 rows (tiles of 15 and 7 steps) end in a partial slab, in
    # slabs of 64 and of 73 paths
    SLAB_BUDGET = 1 << 9

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("width", [1, 7, 65, 128, 130])
    @pytest.mark.parametrize("kind", ["one", "tile-1", "tile", "tile+1", "ragged"])
    def test_tile_boundaries_match_reference(self, monkeypatch, name, width, kind):
        monkeypatch.setattr(schemes, "_TILE_DOUBLES", self.BUDGET)
        monkeypatch.setattr(schemes, "_SLAB_DOUBLES", self.SLAB_BUDGET)
        tile = self.BUDGET // width
        steps = {"one": 1, "tile-1": tile - 1, "tile": tile, "tile+1": tile + 1,
                 "ragged": 3 * (tile - 1)}[kind]
        p, s, y0, dw = self.case(name, width, steps)
        ref, flags = lcm_reference(y0, dw, p, s)
        for record in (False, True):
            out = lcm_evolve(y0, dw, p, s, record=record)
            np.testing.assert_array_equal(out.y_final, ref[:, -1])
            np.testing.assert_array_equal(out.trunc_counts, flags.sum(axis=1))
            if record:
                np.testing.assert_array_equal(out.y_snaps, ref)
                np.testing.assert_array_equal(out.flags, flags)
            else:
                assert out.y_snaps is None and out.flags is None
        if name == "truncating" and steps > 1:
            assert flags.any()

    @pytest.mark.parametrize("k", [5, 146, 200])  # 146 ends a tile of width 7
    def test_split_and_resume_at_tile_edges(self, monkeypatch, k):
        monkeypatch.setattr(schemes, "_TILE_DOUBLES", self.BUDGET)
        p, s, y0, dw = self.case("truncating", 7, 3 * 147)
        ref, flags = lcm_reference(y0, dw, p, s)
        a = lcm_evolve(y0, dw[:, :k], p, s, record=True)
        b = lcm_evolve(a.y_final, dw[:, k:], p, s, record=True)
        np.testing.assert_array_equal(np.hstack([a.y_snaps, b.y_snaps[:, 1:]]), ref)
        np.testing.assert_array_equal(np.hstack([a.flags, b.flags]), flags)
        np.testing.assert_array_equal(a.trunc_counts + b.trunc_counts,
                                      flags.sum(axis=1))

    def test_tile_without_truncations_between_truncating_tiles(self, monkeypatch):
        # the "inside" case never nears log N on its own: a kick of dW = 3 at
        # steps 2 and 34 truncates in the first and the last of three 16-step
        # tiles of 8 rows, and the middle tile, which truncates nowhere, adds
        # no counts
        monkeypatch.setattr(schemes, "_TILE_DOUBLES", 8 * 16)
        p, s, y0, dw = self.case("inside", 8, 3 * 16)
        dw[:, [2, 34]] = 3.0
        ref, flags = lcm_reference(y0, dw, p, s)
        assert flags.reshape(8, 3, 16).any(axis=(0, 2)).tolist() == [True, False, True]
        for record in (False, True):
            out = lcm_evolve(y0, dw, p, s, record=record)
            np.testing.assert_array_equal(out.trunc_counts, flags.sum(axis=1))
            np.testing.assert_array_equal(out.y_final, ref[:, -1])
            if record:
                np.testing.assert_array_equal(out.flags, flags)


class TestLcmEvolveGroups:
    """With a sequence of G ModelParams, row g W + r of lcm_evolve uses group
    g and row r of the shared increments. Each group's rows must equal, bit
    for bit, a one-ModelParams call on the same increments."""

    S = SchemeParams(h=0.25, alpha=0.1, theta=2.0)
    # sigma = 0.01 truncates about every other step at h = 1/4; the
    # strong-noise extinction set from I <= 10 never reaches log N
    TRUNCATING = ModelParams(N=100, beta=0.42, sigma=0.01, mu_plus_gamma=10.0, I0=10.0)
    INSIDE = P_EXT

    @classmethod
    def case(cls, n_groups, width, steps):
        # groups alternate between the two sets, with N and I0 varied so
        # that log N and the reset differ from group to group
        groups = []
        for g in range(n_groups):
            scale = (1.0, 0.6, 1.5)[g // 2 % 3]
            base = cls.TRUNCATING if g % 2 == 0 else cls.INSIDE
            groups.append(replace(base, N=base.N * scale, I0=(10.0 - 3.0 * (g // 2 % 3))))
        rng = np.random.default_rng(1000 * n_groups + width)
        dw = rng.normal(0.0, math.sqrt(cls.S.h), size=(width, steps))
        y0 = np.concatenate([math.log(q.I0) + rng.uniform(-1.0, 0.0, size=width)
                             for q in groups])
        return groups, y0, dw

    @pytest.mark.parametrize("n_groups", [1, 3, 12])
    @pytest.mark.parametrize("width", [1, 7, 65, 128, 130])
    def test_groups_equal_one_set_calls(self, monkeypatch, n_groups, width):
        # a small tile budget, so that grouped and one-set calls cut their
        # tiles at different steps, and a transposing budget that makes every
        # slab 64 paths, so that 65 and 130 rows end in a partial slab for any
        # number of groups
        monkeypatch.setattr(schemes, "_TILE_DOUBLES", 1 << 10)
        monkeypatch.setattr(schemes, "_SLAB_DOUBLES", 64)
        groups, y0, dw = self.case(n_groups, width, 60)
        for record in (False, True):
            out = lcm_evolve(y0, dw, groups, self.S, record=record)
            assert out.y_final.shape == out.trunc_counts.shape == (n_groups * width,)
            if not record:
                assert out.y_snaps is None and out.flags is None
            for g, q in enumerate(groups):
                rows = slice(g * width, (g + 1) * width)
                one = lcm_evolve(y0[rows], dw, q, self.S, record=True)
                np.testing.assert_array_equal(out.y_final[rows], one.y_final)
                np.testing.assert_array_equal(out.trunc_counts[rows],
                                              one.trunc_counts)
                if record:
                    np.testing.assert_array_equal(out.flags[rows], one.flags)
                    np.testing.assert_array_equal(out.y_snaps[rows], one.y_snaps)
                assert (one.y_snaps < math.log(q.N)).all()
                if q.sigma == self.INSIDE.sigma:
                    assert not one.flags.any()
                else:
                    assert one.flags.any()

    @pytest.mark.parametrize("k", [1, 17, 59])
    def test_split_and_resume_equals_one_call(self, monkeypatch, k):
        monkeypatch.setattr(schemes, "_TILE_DOUBLES", 1 << 10)
        groups, y0, dw = self.case(12, 7, 60)
        whole = lcm_evolve(y0, dw, groups, self.S, record=True)
        a = lcm_evolve(y0, dw[:, :k], groups, self.S, record=True)
        b = lcm_evolve(a.y_final, dw[:, k:], groups, self.S, record=True)
        np.testing.assert_array_equal(np.hstack([a.y_snaps, b.y_snaps[:, 1:]]),
                                      whole.y_snaps)
        np.testing.assert_array_equal(np.hstack([a.flags, b.flags]), whole.flags)
        np.testing.assert_array_equal(a.trunc_counts + b.trunc_counts,
                                      whole.trunc_counts)
        assert whole.trunc_counts.any()

    @pytest.mark.parametrize("n_groups", [1, 3])
    def test_no_steps(self, n_groups):
        # no tile runs: the start states carry straight through
        groups, y0, dw = self.case(n_groups, 5, 0)
        out = lcm_evolve(y0, dw, groups, self.S, record=True)
        np.testing.assert_array_equal(out.y_final, y0)
        np.testing.assert_array_equal(out.y_snaps, y0[:, None])
        np.testing.assert_array_equal(out.trunc_counts, np.zeros(n_groups * 5))
        assert out.flags.shape == (n_groups * 5, 0)


class TestSplitRuns:
    """A kernel run split at step k and resumed from its per-row states equals
    one call, bit for bit: the contract time-blocked callers rely on."""

    STEPS = 12

    @pytest.mark.parametrize("k", range(1, STEPS))
    def test_lcm_split_equals_one_call(self, k):
        # sigma = 0.01 truncates about every other step, so counts matter
        p = ModelParams(N=100, beta=0.42, sigma=0.01, mu_plus_gamma=10.0, I0=10.0)
        s = SchemeParams(h=0.25, alpha=0.1, theta=2.0)
        dw = np.vstack([generate(17, i, 3.0, self.STEPS).increments for i in range(6)])
        y0 = math.log(p.I0)
        whole = lcm_evolve(y0, dw, p, s)
        a = lcm_evolve(y0, dw[:, :k], p, s)
        b = lcm_evolve(a.y_final, dw[:, k:], p, s)
        np.testing.assert_array_equal(b.y_final, whole.y_final)
        np.testing.assert_array_equal(a.trunc_counts + b.trunc_counts,
                                      whole.trunc_counts)
        assert whole.trunc_counts.min() > 0

    @pytest.mark.parametrize("k", range(1, STEPS))
    def test_milstein_split_equals_one_call(self, k):
        # rows from I0 = 90: keyed draws (this coarse step leaves [0, N]),
        # drift only (leaves finitely, then overflows) and a forced early
        # explosion; one more row starts at the fixed point 0 and stays there
        h = 0.25
        dw = np.vstack([generate(23, i, 3.0, self.STEPS).increments for i in range(3)]
                       + [np.zeros(self.STEPS), np.full(self.STEPS, 50.0),
                          generate(23, 3, 3.0, self.STEPS).increments])
        i0 = np.array([P_EXT.I0] * 5 + [0.0])
        whole = milstein_evolve(i0, dw, h, P_EXT, )
        a = milstein_evolve(i0, dw[:, :k], h, P_EXT, )
        b = milstein_evolve(a.i_final, dw[:, k:], h, P_EXT, )
        np.testing.assert_array_equal(b.i_final, whole.i_final)  # NaN rows too
        np.testing.assert_array_equal(a.violated | b.violated, whole.violated)
        assert np.isnan(whole.i_final).any() and not whole.violated[-1]

    def test_per_row_start_states(self):
        s = SchemeParams(h=0.25, alpha=0.1, theta=2.0)
        dw = np.vstack([generate(5, i, 2.0, 8).increments for i in range(3)])
        y0 = np.array([-1.0, 0.5, 4.0])
        out = lcm_evolve(y0, dw, P_EXT, s, record=True)
        np.testing.assert_array_equal(out.y_snaps[:, 0], y0)
        for i in range(3):
            one = lcm_evolve(float(y0[i]), dw[i:i + 1], P_EXT, s)
            assert one.y_final[0] == out.y_final[i]


class TestNonFiniteInput:
    S = SchemeParams(h=0.25, alpha=0.1, theta=2.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_lcm_rejects_non_finite_increments(self, bad):
        dw = np.zeros((3, 5))
        dw[1, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            lcm_evolve(0.0, dw, P_CONV1, self.S)

    def test_lcm_rejects_non_finite_start_state(self):
        with pytest.raises(ValueError, match="finite"):
            lcm_evolve(np.array([0.0, np.nan]), np.zeros((2, 3)), P_CONV1, self.S)

    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("budget", [None, 1 << 8])  # 400 steps in one tile or 10
    def test_lcm_state_leaving_float64_is_precondition_error(self, monkeypatch,
                                                            record, budget):
        # each step adds about c0 h = -5e305 to Y, which passes the most
        # negative double at step 343, inside a tile of 42 steps at the small
        # budget; a run whose last step is that one raises too, and in two
        # groups the rows of the second (3 to 5) leave while the first's stay
        if budget is not None:
            monkeypatch.setattr(schemes, "_TILE_DOUBLES", budget)
        huge = ModelParams(N=1e150, beta=0.6, sigma=1.0, mu_plus_gamma=40.0, I0=10.0)
        s = SchemeParams(h=2.0**20, alpha=0.1, theta=2.0)
        dw = np.random.default_rng(5).normal(0.0, 2.0**10, size=(3, 400))
        assert np.isfinite(lcm_evolve(0.0, dw, P_CONV1, s).y_final).all()
        y0 = math.log(10.0)
        assert np.isfinite(lcm_evolve(y0, dw[:, :342], huge, s).y_final).all()
        with pytest.raises(PreconditionError, match="row 0 from step 343 on"):
            lcm_evolve(y0, dw[:, :343], huge, s, record=record)
        with pytest.raises(PreconditionError, match="row 3 from step 343 on"):
            lcm_evolve(y0, dw, [P_CONV1, huge], s, record=record)
        # a run fed in blocks names the step from its start
        with pytest.raises(PreconditionError, match="row 0 from step 1343 on"):
            lcm_evolve(y0, dw, huge, s, record=record, steps_done=1000)


def milstein_one_step(i, dw, p, h):
    """One direct-Milstein step from state i: a one-step, 1-row kernel call
    (dZeta = (dw^2 - h) / 2 is rebuilt inside)."""
    out = milstein_evolve(i, np.array([[dw]]), h, p, )
    return float(out.i_final[0])


class TestMilsteinStep:
    def test_hand_substitution(self):
        # oracle: 1 + 0.125 + 0 + 2.88*(-0.125) = 0.765
        i1 = milstein_one_step(1.0, 0.0, P_CONV1, h=0.25)
        assert i1 == pytest.approx(0.765, rel=1e-13)

    def test_zero_is_fixed_point(self):
        for dw in (0.0, 1.0, -2.5):
            assert milstein_one_step(0.0, dw, P_CONV1, h=0.25) == 0.0

    @pytest.mark.parametrize("p", [
        P_CONV1,  # c = beta N - (mu + gamma) > 0
        ModelParams(N=100, beta=0.05, sigma=0.9, mu_plus_gamma=10.0, I0=1.0),  # c < 0
        ModelParams(N=1e150, beta=0.6, sigma=1.0, mu_plus_gamma=40.0, I0=10.0),
    ], ids=["c>0", "c<0", "N=1e150"])
    @pytest.mark.parametrize("h", [2.0**-15, 0.25, 2.0**20])
    def test_zero_absorbs_any_finite_increments(self, p, h):
        # a, b and b b' are all +-0 at I = +-0, so no increment whose dZeta is
        # finite moves the row or flags it: milstein_violation_fraction may
        # stop stepping a path once it is violated or at 0
        rng = np.random.default_rng(17)
        dw = rng.choice([-1.0, 1.0], size=(6, 300)) * 10.0 ** rng.uniform(
            -3.0, 150.0, size=(6, 300))
        i0 = np.array([0.0, -0.0] * 3)
        out = milstein_evolve(i0, dw, h, p, record=True)
        assert (out.i_snaps == 0.0).all()
        assert not out.violated.any()

    def test_boundary_exit(self):
        # from I=N the drift alone steps straight to the absorbing boundary
        i1 = milstein_one_step(10.0, 0.0, P_CONV1, h=0.25)
        assert i1 == 0.0

    def test_drift_only_iteration(self):
        I = 1.0
        for expected in MILSTEIN_DRIFT_ITERATES:
            I = milstein_one_step(I, 0.0, P_CONV1, h=0.25)
            assert I == pytest.approx(expected, rel=1e-12)


def milstein_reference(i0, dw, h, p):
    """Direct Milstein one step at a time: the update as drift_original and
    diffusion_original write it, each state frozen to NaN from the first
    non-finite one. Returns (every state, violated, exploded)."""
    I = np.array(i0, dtype=np.float64)
    states = [I]
    violated = np.zeros(len(I), dtype=bool)
    dead = ~np.isfinite(I)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(dw.shape[1]):
            w = dw[:, k]
            dz = 0.5 * (w * w) - 0.5 * h
            ai = drift_original(I, p)
            bi = diffusion_original(I, p)
            bpi = p.sigma * (p.N - 2.0 * I)
            nxt = I + ai * h + bi * w + bi * bpi * dz
            dead |= ~np.isfinite(nxt)
            nxt[dead] = np.nan
            violated |= ~((nxt >= 0.0) & (nxt <= p.N))
            I = nxt
            states.append(I)
    return np.stack(states, axis=1), violated, dead


class TestMilsteinEvolveTiles:
    """milstein_evolve steps in tiles and checks the domain once per tile; it
    must equal the per-step reference bit for bit at every tile boundary."""

    BUDGET = 1 << 10  # row-steps per tile in these tests: tiles of 1024, 146, 8

    @staticmethod
    def case(width, steps, h=2.0**-14):
        # random rows, then (width permitting) rows that start at NaN, +inf,
        # -inf, 0 (the fixed point) and -1 (a finite excursion that stays
        # finite); the last row runs drift-only from I = 50 until a kick
        # halfway through throws it out of the domain, and it overflows a few
        # steps later, inside a tile
        rng = np.random.default_rng(1000 * width + steps)
        dw = rng.normal(0.0, math.sqrt(h), size=(width, steps))
        i0 = rng.uniform(1.0, P_EXT.N - 1.0, size=width)
        i0[-1] = 50.0
        dw[-1, :steps // 2] = 0.0
        dw[-1, steps // 2] = 30.0
        if width >= 7:
            i0[1:6] = [np.nan, np.inf, -np.inf, 0.0, -1.0]
        return i0, dw, h

    # 64 and 500 rows are the worker widths of the benchmark's violation run
    # and of acceptance criterion 6; with a small transposing budget 65, 130
    # and 500 rows end in a partial slab, in slabs of 64, 73 and 256 paths
    @pytest.mark.parametrize("width", [1, 7, 64, 65, 128, 130, 500])
    @pytest.mark.parametrize("kind", ["one", "tile-1", "tile", "tile+1", "ragged"])
    def test_matches_per_step_reference(self, monkeypatch, width, kind):
        monkeypatch.setattr(schemes, "_TILE_DOUBLES", self.BUDGET)
        monkeypatch.setattr(schemes, "_SLAB_DOUBLES", 1 << 9)
        tile = self.BUDGET // width
        steps = {"one": 1, "tile-1": tile - 1, "tile": tile, "tile+1": tile + 1,
                 "ragged": 3 * (tile - 1)}[kind]
        i0, dw, h = self.case(width, steps)
        ref, violated, exploded = milstein_reference(i0, dw, h, P_EXT)
        for record in (False, True):
            out = milstein_evolve(i0, dw, h, P_EXT, record=record)
            np.testing.assert_array_equal(out.i_final, ref[:, -1])
            np.testing.assert_array_equal(out.violated, violated)
            np.testing.assert_array_equal(~np.isfinite(out.i_final), exploded)
            if record:
                np.testing.assert_array_equal(out.i_snaps, ref)
            else:
                assert out.i_snaps is None
        if width >= 7:
            np.testing.assert_array_equal(violated[1:6], [True] * 3 + [False, True])
            np.testing.assert_array_equal(exploded[1:6], [True] * 3 + [False] * 2)
        if steps > 20:  # the kicked row overflows mid-run
            assert exploded[-1] and np.isfinite(ref[-1, steps // 2])

    def test_default_tile_matches_reference(self):
        width = 128
        tile = schemes._TILE_DOUBLES // width
        steps = 2 * tile + 3
        i0, dw, h = self.case(width, steps)
        ref, violated, exploded = milstein_reference(i0, dw, h, P_EXT)
        out = milstein_evolve(i0, dw, h, P_EXT, record=True)
        np.testing.assert_array_equal(out.i_snaps, ref)
        np.testing.assert_array_equal(out.violated, violated)
        np.testing.assert_array_equal(~np.isfinite(out.i_final), exploded)

    @pytest.mark.parametrize("k", [5, 146, 200])  # 146 ends a tile of width 7
    def test_split_and_resume_matches_reference(self, monkeypatch, k):
        monkeypatch.setattr(schemes, "_TILE_DOUBLES", self.BUDGET)
        i0, dw, h = self.case(7, 3 * 145)
        ref, violated, exploded = milstein_reference(i0, dw, h, P_EXT)
        a = milstein_evolve(i0, dw[:, :k], h, P_EXT, record=True)
        b = milstein_evolve(a.i_final, dw[:, k:], h, P_EXT, record=True)
        np.testing.assert_array_equal(np.hstack([a.i_snaps, b.i_snaps[:, 1:]]), ref)
        np.testing.assert_array_equal(a.violated | b.violated, violated)
        np.testing.assert_array_equal(~np.isfinite(b.i_final), exploded)

    def test_no_steps(self):
        i0 = np.array([50.0, np.inf])
        out = milstein_evolve(i0, np.empty((2, 0)), 0.25, P_EXT, record=True)
        np.testing.assert_array_equal(out.i_final, i0)
        np.testing.assert_array_equal(out.i_snaps, i0[:, None])
        assert not out.violated.any()


def recorded_milstein(dw, h, p):
    """One direct-Milstein path's every state, with the first step that leaves
    [0, N] and the first that is not finite (None where there is none)."""
    values = milstein_evolve(p.I0, dw[None, :], h, p, record=True).i_snaps[0]
    outside = np.flatnonzero(~((values >= 0.0) & (values <= p.N)))
    blown = np.flatnonzero(~np.isfinite(values))
    return (values, int(outside[0]) if outside.size else None,
            int(blown[0]) if blown.size else None)


class TestMilsteinSimulate:
    """Single direct-Milstein paths, as milstein_evolve(record=True) records them."""

    def test_violation_fraction_at_coarse_step(self):
        # Monte Carlo oracle (scaled down from the acceptance run): the unguarded
        # scheme leaves (0, N) on most paths at h = 2^-2
        dw = PathStreams(5150, 0, 32).increments(20, 0.25)
        assert milstein_evolve(P_EXT.I0, dw, 0.25, P_EXT).violated.sum() > 16

    def test_explosion_freezes_trajectory(self):
        # force explosion with a handcrafted increment sequence
        big = np.array([50.0, 50.0, 50.0, 50.0, 0.0, 0.0])
        values, violation, k = recorded_milstein(big, 0.25, P_EXT)
        assert k is not None and k >= 1
        assert np.all(np.isnan(values[k:]))
        assert np.all(np.isfinite(values[:k]))
        assert violation is not None and violation <= k

    def test_continues_after_finite_violation(self):
        # the iterate leaves (0,N) long before it overflows: stepping must keep
        # going through the finite-but-invalid stretch and only freeze at the
        # first non-finite state
        values, violation, explosion = recorded_milstein(np.zeros(12), 0.25, P_EXT)
        assert violation is not None and explosion is not None
        assert violation < explosion
        assert np.all(np.isfinite(values[violation:explosion]))
        assert np.all(np.isnan(values[explosion:]))

    def test_fine_step_tracks_domain(self):
        grid = generate(base_seed=77, path_index=0, t_final=1.0, fine_steps=2**10)
        out = milstein_evolve(P_CONV1.I0, grid.increments[None, :], grid.h_fine,
                              P_CONV1, record=True)
        assert not out.violated.any()
        assert np.all((out.i_snaps > 0.0) & (out.i_snaps < P_CONV1.N))

    @pytest.mark.parametrize("i0", sorted(MILSTEIN_EXIT_H14))
    def test_one_step_exit_frequency_matches_closed_form(self, i0):
        # one step from a midrange state (I=50 is the worst case) over 2x10^5
        # keyed draws: the exit frequency must sit within 5 binomial standard
        # errors of the closed form, which ties the fine-step exits to the
        # Milstein map itself
        h, n = 2.0**-14, 200_000
        dw = generate(base_seed=1414, path_index=0, t_final=n * h,
                      fine_steps=n).increments[:, None]
        out = milstein_evolve(i0, dw, h, P_EXT, )
        p = MILSTEIN_EXIT_H14[i0]
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(out.violated.mean() - p) <= 5.0 * se

    def test_batch_matches_single(self):
        dw = np.vstack([generate(13, i, 1.0, 16).increments for i in range(3)])
        out = milstein_evolve(P_EXT.I0, dw, 1.0 / 16, P_EXT, record=True)
        for i in range(3):
            values = recorded_milstein(dw[i], 1.0 / 16, P_EXT)[0]
            np.testing.assert_array_equal(out.i_snaps[i], values)  # NaN equals NaN


class TestDomainPreservationProperty:
    def test_random_parameter_sweep(self):
        # seeded sweep over (params, h, path); the full 10^4-draw gate lives in
        # the acceptance suite. Y must stay finite and strictly below log N.
        rng = np.random.default_rng(20240814)
        draws = 0
        while draws < 2000:
            N = float(rng.uniform(2.0, 300.0))
            beta = float(rng.uniform(0.01, 3.0))
            sigma = float(rng.uniform(0.001, 2.0))
            mug = float(rng.uniform(0.01, 20.0))
            i0 = float(rng.uniform(1e-6, 1.0 - 1e-6)) * N
            if not 0.0 < i0 < N:
                continue
            p = ModelParams(N=N, beta=beta, sigma=sigma, mu_plus_gamma=mug, I0=i0)
            h = 2.0 ** -int(rng.integers(0, 11))
            s = SchemeParams(h=h, alpha=float(rng.uniform(0.01, 1.0)),
                             theta=float(rng.uniform(1.5, 3.0)))
            n_paths = 40
            steps = 32
            dw = rng.normal(0.0, math.sqrt(h), size=(n_paths, steps))
            out = lcm_evolve(math.log(i0), dw, p, s, record=True)
            y = out.y_snaps
            assert np.all(np.isfinite(y)), (p, s)
            assert np.all(y < math.log(N)), (p, s)
            draws += n_paths


PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)


@st.composite
def scheme_cases(draw, max_width=1, max_steps=1, max_groups=1):
    """A scheme and 1 .. max_groups models, each with its own N, from the
    range the domain guarantee covers; start states in [-50, log N) of their
    row's group, and increments z sqrt(h) with |z| <= 1e3 shared by the
    groups. Returns (models, scheme, y0, dw): row g W + r of y0 is group g's."""
    h = 2.0 ** draw(st.integers(-40, 10))
    s = SchemeParams(h=h, alpha=draw(st.floats(0.0, 1.0, exclude_min=True)),
                     theta=draw(st.floats(1.5, 4.0)))
    ns = draw(st.lists(st.floats(1.01, 1e6), min_size=1, max_size=max_groups))
    ps = [ModelParams(N=n, beta=0.42, sigma=0.9, mu_plus_gamma=10.0, I0=0.5 * n)
          for n in ns]
    width = draw(st.integers(1, max_width))
    steps = draw(st.integers(1, max_steps))
    y0 = np.array([y for n in ns
                   for y in draw(st.lists(st.floats(-50.0, math.log(n), exclude_max=True),
                                          min_size=width, max_size=width))])
    z = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=width * steps,
                               max_size=width * steps)))
    return ps, s, y0, z.reshape(width, steps) * math.sqrt(h)


def row_log_n(ps, width):
    """log N of every row of a grouped batch."""
    return np.repeat([math.log(p.N) for p in ps], width)


class TestDomainProperty:
    """Y stays finite and strictly below its group's log N for any h > 0,
    alpha in (0, 1] and theta >= 3/2, and split runs equal one call, on drawn
    inputs."""

    @PROPERTY
    @given(scheme_cases(max_groups=4))
    def test_one_step_stays_below_log_n(self, case):
        ps, s, y0, dw = case
        y1 = lcm_evolve(y0, dw, ps, s).y_final
        assert np.isfinite(y1).all()
        assert (y1 < row_log_n(ps, dw.shape[0])).all()

    @PROPERTY
    @given(scheme_cases(max_width=4, max_steps=12, max_groups=3), st.integers(1, 11))
    def test_lcm_split_equals_one_call(self, case, k):
        ps, s, y0, dw = case
        k = min(k, dw.shape[1])
        whole = lcm_evolve(y0, dw, ps, s)
        a = lcm_evolve(y0, dw[:, :k], ps, s)
        b = lcm_evolve(a.y_final, dw[:, k:], ps, s)
        np.testing.assert_array_equal(b.y_final, whole.y_final)
        np.testing.assert_array_equal(a.trunc_counts + b.trunc_counts,
                                      whole.trunc_counts)
        assert np.isfinite(whole.y_final).all()
        assert (whole.y_final < row_log_n(ps, dw.shape[0])).all()

    @PROPERTY
    @given(scheme_cases(max_width=4, max_steps=12), st.integers(1, 11))
    def test_milstein_split_equals_one_call(self, case, k):
        (p,), s, y0, dw = case
        k = min(k, dw.shape[1])
        i0 = np.exp(y0)
        whole = milstein_evolve(i0, dw, s.h, p, )
        a = milstein_evolve(i0, dw[:, :k], s.h, p, )
        b = milstein_evolve(a.i_final, dw[:, k:], s.h, p, )
        np.testing.assert_array_equal(b.i_final, whole.i_final)
        np.testing.assert_array_equal(a.violated | b.violated, whole.violated)
