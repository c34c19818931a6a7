"""Diagnostic: which sample statistic reproduces the target error rows?

Runs the coupled-path setup at 1e4 paths and prints, per level, several
candidate statistics alongside the target row so a constant-factor mismatch
can be attributed. Increments are read in time blocks from
sislab.paths.PathStreams and the kernels carry their states from block to
block, as sislab.analysis.strong_error does. Dev-only; not part of the
package:

    PYTHONPATH=src python tools/diag_error_stat.py
"""

import math
from dataclasses import replace

import numpy as np

from sislab.model import ModelParams
from sislab.paths import PathStreams
from sislab.schemes import SchemeParams, lcm_evolve

T_FINAL = 1.0
H_REF = 2.0 ** -14
LEVELS = tuple(2.0 ** -k for k in range(4, 11))  # 2^-4 .. 2^-10
BLOCK = 4096  # fine steps per time block; a multiple of every level's ratio


def collect(p, s_ref, n_paths, base_seed, chunk=500):
    fine_steps = round(T_FINAL / s_ref.h)
    ratios = [round(L / s_ref.h) for L in LEVELS]
    r_min = min(ratios)
    y0 = math.log(p.I0)

    nL = len(LEVELS)
    sup_i = np.zeros((nL, n_paths))   # the t = 0 gap is 0 on every path
    term_i = np.empty((nL, n_paths))
    sum2_i = np.zeros((nL, n_paths))
    sup_y = np.zeros((nL, n_paths))
    term_y = np.empty((nL, n_paths))

    for lo in range(0, n_paths, chunk):
        hi = min(lo + chunk, n_paths)
        streams = PathStreams(base_seed, lo, hi)
        y_ref = y0
        y_lev = [y0] * nL
        for start in range(0, fine_steps, BLOCK):
            dwf = streams.increments(min(BLOCK, fine_steps - start),
                                     T_FINAL / fine_steps)
            ref = lcm_evolve(y_ref, dwf, p, s_ref, record_stride=r_min)
            y_ref = ref.y_final
            yref = ref.y_snaps[:, 1:]  # column 0 is the previous block's end
            iref = np.exp(yref)
            for li, (L, r) in enumerate(zip(LEVELS, ratios)):
                dwl = dwf.reshape(hi - lo, -1, r).sum(axis=2)
                out = lcm_evolve(y_lev[li], dwl, p, replace(s_ref, h=L),
                                 record_stride=1)
                y_lev[li] = out.y_final
                q = r // r_min
                sl = slice(q - 1, None, q)
                di = np.abs(iref[:, sl] - np.exp(out.y_snaps[:, 1:]))
                dy = np.abs(yref[:, sl] - out.y_snaps[:, 1:])
                sup_i[li, lo:hi] = np.maximum(sup_i[li, lo:hi], di.max(axis=1))
                term_i[li, lo:hi] = di[:, -1]
                sum2_i[li, lo:hi] += (di ** 2).sum(axis=1)
                sup_y[li, lo:hi] = np.maximum(sup_y[li, lo:hi], dy.max(axis=1))
                term_y[li, lo:hi] = dy[:, -1]

    points = np.array([fine_steps // r + 1 for r in ratios])[:, None]
    return dict(
        sup_L2=np.sqrt((sup_i ** 2).mean(axis=1)),
        sup_L1=sup_i.mean(axis=1),
        term_L2=np.sqrt((term_i ** 2).mean(axis=1)),
        term_L1=term_i.mean(axis=1),
        grid_L2=np.sqrt((sum2_i / points).mean(axis=1)),
        supY_L2=np.sqrt((sup_y ** 2).mean(axis=1)),
        termY_L2=np.sqrt((term_y ** 2).mean(axis=1)),
    )


CASES = [
    ("Ex1", ModelParams(N=10, beta=0.5, sigma=0.2, mu_plus_gamma=4.0, I0=1.0),
     SchemeParams(h=H_REF, alpha=0.1, theta=2.0), 101,
     {2.0 ** -10: 0.0006, 2.0 ** -9: 0.0013, 2.0 ** -8: 0.0026,
      2.0 ** -7: 0.0051, 2.0 ** -6: 0.0103}),
    ("Ex2", ModelParams(N=10, beta=0.7, sigma=0.1, mu_plus_gamma=2.0, I0=9.0),
     SchemeParams(h=H_REF, alpha=1.0, theta=3.0), 202,
     {2.0 ** -10: 0.0014, 2.0 ** -9: 0.0029, 2.0 ** -8: 0.0059,
      2.0 ** -7: 0.0120, 2.0 ** -6: 0.0243}),
]


def main():
    for name, p, s, seed, rows in CASES:
        stats = collect(p, s, 10_000, seed)
        print(f"\n=== {name} ===")
        hdr = ["h", "table"] + list(stats)
        print(" ".join(f"{c:>9}" for c in hdr))
        for li, L in enumerate(LEVELS):
            row = [f"{L:9.6f}", f"{rows.get(L, float('nan')):9.4f}"]
            row += [f"{stats[k][li]:9.5f}" for k in stats]
            print(" ".join(row))


if __name__ == "__main__":
    main()
