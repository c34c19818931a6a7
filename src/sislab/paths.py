"""Reproducible Brownian increments on a fine grid, with exact dyadic
coarsening and a small binary dump format.

Every path is an independent counter-based stream keyed by
(base_seed, path_index), so a path's draws never depend on how many other
paths were generated, in which order, or in which chunk. The same
streams can be read forward in time blocks (PathStreams), and blocks of any
lengths concatenate, bit for bit, to the whole-path draw of generate.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BrownianGrid",
    "LevyAreaIncrement",
    "LevyIncrements",
    "PathStreams",
    "coarsen",
    "generate",
    "load_increments",
    "path_rng",
    "save_increments",
]

# little-endian: t_final f64, fine_steps u64, base_seed u64, path_index u64
_HEADER = struct.Struct("<dQQQ")


def path_rng(base_seed, path_index):
    """Generator for one path, keyed by the (base_seed, path_index) pair.

    Philox takes a 128-bit key; the two integers are reduced mod 2^64 and
    used as its two words, so negative seeds are accepted and stable.
    """
    key = np.array([int(base_seed) % 2**64, int(path_index) % 2**64],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class BrownianGrid:
    """Fine-grid increments of one Brownian path over [0, t_final]."""

    t_final: float
    fine_steps: int
    increments: np.ndarray
    seed_record: tuple

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
    return BrownianGrid(t_final=t_final, fine_steps=fine_steps, increments=inc,
                        seed_record=(base_seed % 2**64, path_index % 2**64))


class PathStreams:
    """The streams of paths lo .. hi - 1 under one base seed, read forward in
    time blocks.

    Row j of every block is path lo + j, and each call continues every stream
    where the previous call stopped. Philox is counter-based, so blocks of any
    lengths, concatenated, equal one whole-path draw bit for bit: the blocks
    of increments(count, t_final / steps) make up what generate(base_seed, j,
    t_final, steps) returns, and a prefix of the normals is the draw of a
    shorter horizon.
    """

    def __init__(self, base_seed, lo, hi):
        self._rngs = [path_rng(base_seed, j) for j in range(lo, hi)]

    def normals(self, count):
        """The next count standard normals of every path, shape (rows, count)."""
        out = np.empty((len(self._rngs), count))
        for row, rng in zip(out, self._rngs):
            rng.standard_normal(out=row)
        return out

    def increments(self, count, h):
        """The next count increments N(0, h) of every path, shape (rows, count)."""
        out = self.normals(count)
        out *= math.sqrt(h)
        return out


@dataclass(frozen=True)
class LevyAreaIncrement:
    """One step's driving pair (dW, dZeta), dZeta = (dW^2 - h) / 2."""

    dW: float
    dZeta: float


@dataclass(frozen=True)
class LevyIncrements:
    """Step size plus the full (dW, dZeta) arrays for one path."""

    h: float
    dW: np.ndarray
    dZeta: np.ndarray

    def __len__(self):
        return len(self.dW)

    def __getitem__(self, k):
        return LevyAreaIncrement(dW=float(self.dW[k]), dZeta=float(self.dZeta[k]))


def coarsen(grid, level):
    """Aggregate 2**level consecutive fine increments per coarse step.

    The coarse dW is the exact numpy cell sum of its fine increments; dZeta is
    always rebuilt from the coarse dW (never summed), since the identity
    dZeta = (dW^2 - h)/2 must hold at the coarse step size.
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
    dz = 0.5 * (dw * dw) - 0.5 * h
    return LevyIncrements(h=h, dW=dw, dZeta=dz)


def save_increments(grid, path):
    """Dump a grid to a flat little-endian binary file."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(grid.t_final, grid.fine_steps, *grid.seed_record))
        fh.write(np.ascontiguousarray(grid.increments, dtype="<f8").tobytes())


def load_increments(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    t_final, fine_steps, seed, idx = _HEADER.unpack_from(raw, 0)
    inc = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).copy()
    if len(inc) != fine_steps:
        raise ValueError(f"{path}: expected {fine_steps} increments, found {len(inc)}")
    return BrownianGrid(t_final=t_final, fine_steps=fine_steps, increments=inc,
                        seed_record=(seed, idx))
