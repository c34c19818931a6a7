"""Diagnostic: direct-Milstein domain-exit statistics near the fine step size.

Compares the one-step exit frequency with its closed form, validates the
measured violation fraction with an implementation-independent path loop
(fresh numpy Generator, inline update formula), then sweeps h and splits the
fraction by event type. The keyed sweep reads the package's increments in
time blocks (sislab.paths.PathStreams), so memory does not grow with 1/h.
Dev-only; not part of the package. Needs mpmath:

    PYTHONPATH=src python tools/diag_violation.py
"""

import numpy as np

from derive_oracles import milstein_exit_probability
from sislab.paths import PathStreams

BETA, SIGMA, MUGAMMA, N, I0 = 0.42, 0.9, 10.0, 100.0, 90.0
T = 5.0
BLOCK = 4096  # steps per time block of the keyed increments


def step(i, dw, h):
    a = i * (BETA * N - MUGAMMA - BETA * i)
    b = SIGMA * i * (N - i)
    bp = SIGMA * (N - 2.0 * i)
    dz = 0.5 * (dw * dw) - 0.5 * h
    return i + a * h + b * dw + b * bp * dz


def sweep(h, n_paths, blocks, chunk=100):
    """Fractions of paths that leave [0, N] (closed), also touch 0 or N
    (open), and turn non-finite (exploded). blocks(lo, hi, steps, h) yields
    the increments of paths lo .. hi - 1 as consecutive (rows, count) blocks."""
    steps = int(round(T / h))
    closed = np.zeros(n_paths, dtype=bool)   # ever outside [0, N] / non-finite
    touched = np.zeros(n_paths, dtype=bool)  # ever exactly 0 or exactly N
    blown = np.zeros(n_paths, dtype=bool)    # ever non-finite
    for lo in range(0, n_paths, chunk):
        hi = min(lo + chunk, n_paths)
        i = np.full(hi - lo, I0)
        dead = np.zeros(hi - lo, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            for dw in blocks(lo, hi, steps, h):
                for k in range(dw.shape[1]):
                    nxt = step(i, dw[:, k], h)
                    dead |= ~np.isfinite(nxt)
                    nxt = np.where(dead, np.nan, nxt)
                    closed[lo:hi] |= ~((nxt >= 0.0) & (nxt <= N))
                    touched[lo:hi] |= (nxt == 0.0) | (nxt == N)
                    i = nxt
        blown[lo:hi] = dead
    return closed.mean(), (closed | touched).mean(), blown.mean()


def fresh(seed):
    rng = np.random.default_rng(seed)

    def blocks(lo, hi, steps, h):
        # one block: the chunk is drawn row-major from one shared generator,
        # so splitting it in time would change the numbers
        yield rng.standard_normal((hi - lo, steps)) * np.sqrt(h)

    return blocks


def keyed(base_seed):
    def blocks(lo, hi, steps, h):
        streams = PathStreams(base_seed, lo, hi)
        for start in range(0, steps, BLOCK):
            yield streams.increments(min(BLOCK, steps - start), T / steps)

    return blocks


def main():
    # one-step exit probability from mid-decay state I=65: fresh rng vs closed form
    rng = np.random.default_rng(99)
    n = 10_000_000
    for k in (14, 15):
        h = 2.0 ** -k
        out = step(np.full(n, 65.0), rng.standard_normal(n) * np.sqrt(h), h)
        exact = milstein_exit_probability(65, h, "0.42", "0.9", "10", "100")
        print(f"one-step exit prob from I=65 at h=2^-{k}: "
              f"{np.mean((out < 0.0) | (out > N)):.2e} (closed form {float(exact):.3e})")

    # independent end-to-end fractions (fresh rng, inline loop)
    for k in (14, 15):
        c, o, b = sweep(2.0 ** -k, 1000, fresh(12345))
        print(f"independent rng  h=2^-{k}: closed={c:.3f} open={o:.3f} exploded={b:.3f}")

    # same statistic on the package's keyed increments (acceptance seed)
    for k in (13, 14, 15, 16):
        c, o, b = sweep(2.0 ** -k, 1000, keyed(606))
        print(f"keyed seed 606   h=2^-{k}: closed={c:.3f} open={o:.3f} "
              f"exploded={b:.3f}")


if __name__ == "__main__":
    main()
