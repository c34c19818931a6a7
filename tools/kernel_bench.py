"""Stepping-kernel cost: ns per path-step of lcm_evolve and milstein_evolve
at several batch widths.

Each cell steps about --path-steps path-steps (width x steps, at most 4,096
steps) on criterion 6's parameters from I = 50 at h = 2^-15, where the direct
scheme stays in its domain, and reports the best of three timings. The
lcm_evolve_x12 column steps the 12 (set, I0) pairs of
configs/table4_sets.cfg as parameter groups of one call on the same
increments, as truncation_table does: 12 x width rows, counted per row. The
lcm_evolve_rec column steps the same dw as dynamics_verdicts steps the
second half of a run: in record=True calls of REC_BLOCK (128) steps, each
from the last one's final states, keeping every state and truncation flag.
The lcm_evolve_extinct column steps table 4's set 4 from Y = -720, where
e^Y is subnormal and lcm_evolve's exp floor (about -693.8) holds every row.
The milstein_evolve_rec column steps each cell in one record=True call of at
most 4,096 steps, the calls sislab.analysis.write_trajectory's direct branch
makes (on one row).
The default run takes under fifteen seconds. Dev-only; not part of the
package:

    PYTHONPATH=src python tools/kernel_bench.py [--path-steps 2097152]
"""

import argparse
import math
import time
from dataclasses import replace

import numpy as np

from sislab.model import ModelParams
from sislab.schemes import SchemeParams, lcm_evolve, milstein_evolve

P = ModelParams(N=100, beta=0.42, sigma=0.9, mu_plus_gamma=10.0, I0=50.0)
S = SchemeParams(h=2.0**-15, alpha=0.1, theta=2.0)
TABLE4 = [replace(P, beta=beta, sigma=sigma, mu_plus_gamma=mug, I0=i0)
          for beta, sigma, mug in ((0.42, 0.9, 10.0), (0.42, 0.01, 10.0),
                                   (0.6, 0.01, 40.0), (0.6, 0.1, 40.0))
          for i0 in (10.0, 50.0, 90.0)]
TABLE4_Y0 = np.array([math.log(q.I0) for q in TABLE4])
SET4 = TABLE4[9]
REC_BLOCK = 128  # the time block of sislab.analysis.dynamics_verdicts


def lcm_recorded_blocks(dw):
    y = math.log(P.I0)
    for start in range(0, dw.shape[1], REC_BLOCK):
        y = lcm_evolve(y, dw[:, start:start + REC_BLOCK], P, S, record=True,
                       steps_done=start).y_final


# name: (kernel, rows stepped per row of dw)
KERNELS = {
    "lcm_evolve": (lambda dw: lcm_evolve(math.log(P.I0), dw, P, S), 1),
    "milstein_evolve": (lambda dw: milstein_evolve(P.I0, dw, S.h, P), 1),
    "lcm_evolve_x12": (
        lambda dw: lcm_evolve(np.repeat(TABLE4_Y0, len(dw)), dw, TABLE4, S),
        len(TABLE4)),
    "lcm_evolve_rec": (lcm_recorded_blocks, 1),
    "lcm_evolve_extinct": (lambda dw: lcm_evolve(-720.0, dw, SET4, S), 1),
    "milstein_evolve_rec": (lambda dw: milstein_evolve(P.I0, dw, S.h, P, record=True), 1),
}
WIDTHS = (1, 25, 64, 128, 512, 1024, 8192)
MAX_STEPS = 4096


def ns_per_path_step(kernel, groups, dw):
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        kernel(dw)
        best = min(best, time.perf_counter() - start)
    return best / (groups * dw.size) * 1e9


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--path-steps", type=int, default=1 << 21)
    args = ap.parse_args(argv)
    rng = np.random.default_rng(0)
    print(f"{'width':>6} {'steps':>6} " + " ".join(f"{k:>18}" for k in KERNELS)
          + "  (ns per path-step)")
    for width in WIDTHS:
        steps = max(1, min(MAX_STEPS, args.path_steps // width))
        dw = rng.normal(0.0, math.sqrt(S.h), size=(width, steps))
        cells = [ns_per_path_step(k, groups, dw) for k, groups in KERNELS.values()]
        print(f"{width:6d} {steps:6d} " + " ".join(f"{c:18.1f}" for c in cells))


if __name__ == "__main__":
    main()
