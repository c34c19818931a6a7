"""Reproducible Brownian increments on a fine grid, with exact dyadic
coarsening.

Every path is an independent counter-based stream keyed by
(base_seed, path_index), so a path's draws never depend on how many other
paths were generated, in which order, or in which chunk. PathStreams walks
the same streams forward in time blocks of one buffer, and blocks of any
lengths concatenate, bit for bit, to the whole-path draw of generate.
Only dW is carried: the stepping kernels rebuild dZeta = (dW^2 - h) / 2 at
their own step size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BrownianGrid",
    "LevyIncrements",
    "PathStreams",
    "coarsen",
    "generate",
    "path_rng",
]


@functools.cache
def _key_type():
    """A seed sequence handing Philox its key as is, where Philox(key=) seeds
    one from OS entropy. Made on first use: naming np.random imports it."""
    @dataclass
    class _Key(np.random.bit_generator.ISeedSequence):
        key: np.ndarray
        def generate_state(self, n_words, dtype=np.uint32):
            return self.key  # Philox asks for two uint64 words, its key
    return _Key


def path_rng(base_seed, path_index):
    """Generator for one path, keyed by the (base_seed, path_index) pair.

    Philox takes a 128-bit key; the two integers are reduced mod 2^64 and
    used as its two words, so negative seeds are accepted and stable.
    """
    key = np.array([int(base_seed) % 2**64, int(path_index) % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_key_type()(key)))


@dataclass(frozen=True)
class BrownianGrid:
    """Fine-grid increments of one Brownian path over [0, t_final]."""

    t_final: float
    fine_steps: int
    increments: np.ndarray

    @property
    def h_fine(self):
        return self.t_final / self.fine_steps


def generate(base_seed, path_index, t_final, fine_steps):
    """Draw the fine-grid increments of one path: N(0, t_final/fine_steps)."""
    if fine_steps <= 0:
        raise ValueError("fine_steps must be positive")
    if not t_final > 0:
        raise ValueError("t_final must be positive")
    h = t_final / fine_steps
    inc = path_rng(base_seed, path_index).standard_normal(fine_steps) * math.sqrt(h)
    return BrownianGrid(t_final=t_final, fine_steps=fine_steps, increments=inc)


class PathStreams:
    """The streams of paths lo .. hi - 1 under one base seed, read forward in
    time blocks.

    Row j of every block is path lo + j, and each call continues every stream
    where the previous call stopped. Philox is counter-based, so blocks of any
    lengths, concatenated, equal one whole-path draw bit for bit: the blocks
    of increments(count, t_final / steps) make up what generate(base_seed, j,
    t_final, steps) returns. At h = 1.0 the increments are the standard
    normals themselves, a prefix of which, scaled, is a shorter horizon's draw.
    keep drops rows between calls; a kept row's stream is unchanged by it.
    """

    def __init__(self, base_seed, lo, hi):
        self._rngs = [path_rng(base_seed, j) for j in range(lo, hi)]

    def __len__(self):
        return len(self._rngs)

    def keep(self, mask):
        """Stop drawing the rows where mask is False: later draws hold the
        other rows only, in order, each continuing where it stopped."""
        self._rngs = [rng for rng, k in zip(self._rngs, mask, strict=True) if k]

    def increments(self, count, h, out=None):
        """The next count increments N(0, h) of every path, shape (rows, count),
        written into out if it is given."""
        if out is None:
            out = np.empty((len(self), count))
        for row, rng in zip(out, self._rngs):
            rng.standard_normal(out=row)
        out *= math.sqrt(h)
        return out

    def blocks(self, steps, h, block):
        """(start, dw) per block of the next steps increments N(0, h) of every
        path: dw holds steps start onward, block of them (the last block may be
        shorter), as a C-contiguous view of one buffer that the next overwrites.
        Each block has a row per path kept when it is drawn (keep)."""
        buf = np.empty(len(self) * min(block, steps))
        for start in range(0, steps, block):
            n = min(block, steps - start)
            yield start, self.increments(n, h, buf[:len(self) * n].reshape(-1, n))


@dataclass(frozen=True)
class LevyIncrements:
    """Step size plus the dW array of one path; the kernels rebuild
    dZeta = (dW^2 - h) / 2 from dW."""

    h: float
    dW: np.ndarray


def coarsen(grid, level):
    """Aggregate 2**level consecutive fine increments per coarse step.

    The coarse dW is the exact numpy cell sum of its fine increments. dZeta
    is never summed: the kernels rebuild it from the coarse dW, since the
    identity dZeta = (dW^2 - h)/2 must hold at the coarse step size.
    """
    width = 1 << level
    m, rem = divmod(grid.fine_steps, width)
    if rem:
        raise ValueError(
            f"2^{level} does not divide {grid.fine_steps} fine steps")
    h = grid.h_fine * width
    if width == 1:
        dw = grid.increments
    else:
        dw = grid.increments.reshape(m, width).sum(axis=1)
    return LevyIncrements(h=h, dW=dw)
