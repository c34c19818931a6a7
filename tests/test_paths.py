"""Brownian grid generation, block reads of the same streams, and coarse
aggregation."""

import math

import numpy as np
import pytest

from sislab.paths import BrownianGrid, PathStreams, coarsen, generate, path_rng


class TestGenerate:
    def test_determinism(self):
        a = generate(base_seed=42, path_index=3, t_final=1.0, fine_steps=256)
        b = generate(base_seed=42, path_index=3, t_final=1.0, fine_steps=256)
        np.testing.assert_array_equal(a.increments, b.increments)

    def test_distinct_paths_differ(self):
        a = generate(42, 0, 1.0, 256)
        b = generate(42, 1, 1.0, 256)
        assert not np.array_equal(a.increments, b.increments)

    def test_distinct_base_seeds_differ(self):
        a = generate(1, 0, 1.0, 256)
        b = generate(2, 0, 1.0, 256)
        assert not np.array_equal(a.increments, b.increments)

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            generate(0, 0, 1.0, 0)

    def test_h_fine(self):
        grid = generate(0, 0, 2.0, 1024)
        assert grid.h_fine == 2.0 / 1024

    def test_increment_moments(self):
        # CLT bound: |mean| < 4 sqrt(h/n); chi-square: var within 2% of h
        h = 2.0**-10
        n = 1_000_000
        grid = generate(base_seed=2024, path_index=0, t_final=n * h, fine_steps=n)
        assert abs(grid.increments.mean()) < 4.0 * math.sqrt(h / n)
        assert abs(grid.increments.var() / h - 1.0) < 0.02

    def test_negative_base_seed_is_stable(self):
        # seeds are reduced mod 2^64 before keying the generator
        a = generate(-1, 0, 1.0, 16)
        b = generate(2**64 - 1, 0, 1.0, 16)
        np.testing.assert_array_equal(a.increments, b.increments)


class TestPathRng:
    def test_keyed_by_pair(self):
        x = path_rng(7, 11).standard_normal(8)
        y = path_rng(7, 11).standard_normal(8)
        np.testing.assert_array_equal(x, y)
        z = path_rng(11, 7).standard_normal(8)
        assert not np.array_equal(x, z)


class TestPathStreams:
    def test_blocks_concatenate_to_whole_draw(self):
        # blocks of 1, of 4,095 and of lengths that do not divide the horizon,
        # drawn one by one and walked by blocks
        steps, t_final = 10_000, 2.5
        h = t_final / steps
        streams = PathStreams(31, 3, 8)
        drawn = [streams.increments(n, h) for n in (1, 4095, 3333, steps - 1 - 4095 - 3333)]
        wholes = [np.concatenate(drawn, axis=1)]
        for block in (1, 7, 3000, 20_000):  # 3,000 does not divide the horizon
            walked = [(start, dw.copy())
                      for start, dw in PathStreams(31, 3, 8).blocks(steps, h, block)]
            assert [start for start, _ in walked] == list(range(0, steps, block))
            assert all(dw.shape == (5, min(block, steps - start)) for start, dw in walked)
            wholes.append(np.concatenate([dw for _, dw in walked], axis=1))
        for whole in wholes:
            assert whole.shape == (5, steps)
            for row, j in zip(whole, range(3, 8)):
                np.testing.assert_array_equal(
                    row, generate(31, j, t_final, steps).increments)

    @pytest.mark.parametrize("block", [7, 1024])
    def test_kept_rows_join_their_whole_draw(self, block):
        # rows dropped after the second and the fourth block: each kept row's
        # blocks still join into its generate draw, and a dropped row's
        # generator is never drawn from again, so it goes on where it stopped
        steps, t_final = 5000, 2.0
        h = t_final / steps
        streams = PathStreams(31, 3, 11)
        paths = np.arange(3, 11)  # the path of each row of the next block
        drawn = {j: [] for j in paths}
        dropped = {}  # path: its generator
        drops = {1: [1, 4], 3: [0, 5]}  # after block k, the rows dropped
        for k, (start, dw) in enumerate(streams.blocks(steps, h, block)):
            assert dw.shape == (len(paths), min(block, steps - start))
            for j, row in zip(paths, dw):
                drawn[j].append(row.copy())
            if k in drops:
                mask = np.ones(len(paths), dtype=bool)
                mask[drops[k]] = False
                dropped.update((j, rng) for j, rng, kept
                               in zip(paths, streams._rngs, mask) if not kept)
                streams.keep(mask)
                paths = paths[mask]
        assert len(paths) == 4 and len(dropped) == 4
        for j in paths:
            np.testing.assert_array_equal(np.concatenate(drawn[j]),
                                          generate(31, j, t_final, steps).increments)
        for j, rng in dropped.items():  # a prefix of the whole draw, then the rest
            got = np.concatenate(drawn[j])
            assert len(got) == (2 if j in (4, 7) else 4) * block
            np.testing.assert_array_equal(
                np.concatenate([got, rng.standard_normal(steps - len(got)) * math.sqrt(h)]),
                generate(31, j, t_final, steps).increments)

    def test_keep_needs_a_flag_per_row(self):
        with pytest.raises(ValueError):
            PathStreams(7, 0, 3).keep([True, False])

    def test_walked_block_is_overwritten_by_the_next(self):
        # every block is a C-contiguous view of one buffer: a block kept past
        # its turn holds the next block's increments
        walk = PathStreams(7, 0, 3).blocks(10, 0.25, 4)
        _, first = next(walk)
        kept = first.copy()
        _, second = next(walk)
        assert np.shares_memory(first, second) and second.flags.c_contiguous
        np.testing.assert_array_equal(first, second)
        assert not np.array_equal(first, kept)
        _, last = next(walk)  # the short last block is the buffer's prefix
        assert last.shape == (3, 2) and last.flags.c_contiguous
        np.testing.assert_array_equal(first.ravel()[:6], last.ravel())

    def test_row_does_not_depend_on_range(self):
        a = PathStreams(7, 0, 10).increments(64, 1.0)
        b = PathStreams(7, 5, 6).increments(64, 1.0)
        np.testing.assert_array_equal(a[5], b[0])

    def test_scaled_prefix_is_shorter_draw(self):
        # one draw at the largest step count serves every coarser step size
        z = PathStreams(7001, 0, 4).increments(1600, 1.0)
        for steps in (100, 400, 1600):
            for j in range(4):
                np.testing.assert_array_equal(
                    z[j, :steps] * math.sqrt(50.0 / steps),
                    generate(7001, j, 50.0, steps).increments)


class TestCoarsen:
    def test_identity_level(self):
        grid = generate(5, 0, 1.0, 64)
        inc = coarsen(grid, 0)
        np.testing.assert_array_equal(inc.dW, grid.increments)
        assert inc.h == grid.h_fine

    def test_pairwise_additivity(self):
        grid = BrownianGrid(t_final=1.0, fine_steps=2,
                            increments=np.array([0.25, -0.0625]))
        inc = coarsen(grid, 1)
        assert len(inc.dW) == 1
        assert inc.dW[0] == 0.25 + -0.0625

    def test_zero_increment_dzeta(self):
        grid = BrownianGrid(t_final=1.0, fine_steps=4,
                            increments=np.zeros(4))
        inc = coarsen(grid, 2)
        assert inc.h == 1.0
        assert inc.dW[0] == 0.0
        assert 0.5 * inc.dW[0] ** 2 - 0.5 * inc.h == -0.5  # the dZeta a kernel builds

    def test_exact_cell_sums(self):
        # each coarse increment must equal the numpy reduction of its fine cell
        grid = generate(9, 4, 1.0, 1024)
        for level in (1, 3, 5, 10):
            width = 2**level
            inc = coarsen(grid, level)
            cells = grid.increments.reshape(-1, width)
            np.testing.assert_array_equal(inc.dW, cells.sum(axis=1))
            # and stay within float-noise of an exactly-rounded summation
            exact = np.array([math.fsum(c) for c in cells])
            np.testing.assert_allclose(inc.dW, exact, rtol=0, atol=1e-13)

    def test_telescoping_to_total(self):
        grid = generate(9, 4, 1.0, 1024)
        total = grid.increments.sum()
        for level in (0, 2, 4, 8):
            assert coarsen(grid, level).dW.sum() == pytest.approx(total, abs=1e-12)

    def test_rejects_non_dividing_level(self):
        grid = generate(0, 0, 1.0, 12)
        with pytest.raises(ValueError):
            coarsen(grid, 3)  # 8 does not divide 12

    def test_martingale_moments(self):
        # E[dZeta] = 0 and E[dW dZeta] = 0, each within 4 standard errors, for
        # dZeta = (dW^2 - h) / 2 as the kernels build it
        grid = generate(base_seed=77, path_index=0, t_final=200.0, fine_steps=200_000)
        inc = coarsen(grid, 0)
        n = len(inc.dW)
        dz = 0.5 * inc.dW**2 - 0.5 * inc.h
        for s in (dz, inc.dW * dz):
            se = s.std() / math.sqrt(n)
            assert abs(s.mean()) < 4.0 * se
