"""sislab benchmark: four of the paper's experiments, timed end to end.

    python3 perfbench/run.py --workload convergence --seed 1 --seconds 30 --trace 0

Runs the workload in fresh processes (perfbench/rep.py), one repetition
after another, until the next one would end after --seconds; at least three
repetitions are made. Prints one line per repetition, then as its last line a
JSON object with the operations attempted and failed and the metrics: with
--trace 0 the medians of wall_s, setup_s and peak_rss_mb; with --trace 1 the
per-layer metrics, from repetitions that alternate untraced and traced, with
trace.overhead_s the traced median wall_s minus the untraced one. Exits 1 if
an operation failed or a repetition died, 2 if there is no sislab source to
run. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("convergence", "truncation", "dynamics", "violation")
MIN_REPS = 3
DEADLINE_S = 170.0  # every run must end within 180 s


def repetition(workload, seed, traced, timeout):
    """Run one repetition; returns its report, or None if it died."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"repetition timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"repetition exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace):
    """Repetitions as (traced, report) pairs; a trace run alternates them."""
    reps = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        traced = trace and len(reps) % 2 == 1
        began = time.perf_counter()
        report = repetition(workload, seed, traced, DEADLINE_S - (began - start))
        longest = max(longest, time.perf_counter() - began)
        reps.append((traced, report))
        if report is None:
            return reps
        print(f"{workload} rep {len(reps)}{' traced' if traced else ''}: "
              f"setup_s {report['setup_s']:.4f} wall_s {report['wall_s']:.4f} "
              f"peak_rss_mb {report['peak_rss_mb']:.1f} "
              f"failed {report['failed']}/{report['attempted']}")
        elapsed = time.perf_counter() - start
        enough = len(reps) % 2 == 0 if trace else len(reps) >= MIN_REPS
        if elapsed + longest > DEADLINE_S or (enough and elapsed + longest > seconds):
            return reps


def median_layers(reports):
    out = {}
    for name, (_, unit) in reports[0]["layers"].items():
        values = [r["layers"][name][0] for r in reports]
        value = None if None in values else statistics.median(values)
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed; defaults to each config's base_seed")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "sislab" / "__init__.py").is_file():
        print(f"perfbench: no sislab source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    reps = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    reports = [r for _, r in reps if r is not None]
    died = len(reps) - len(reports)
    attempted = sum(r["attempted"] for r in reports) + died
    failed = sum(r["failed"] for r in reports) + died
    plain = [r for t, r in reps if r is not None and not t]
    traced = [r for t, r in reps if r is not None and t]
    if args.trace:
        metrics = median_layers(traced) if traced else {}
        for site in traced[0]["missing"] if traced else ():
            print(f"trace: {site} no longer exists; its metrics read null",
                  file=sys.stderr)
        if traced and plain:
            overhead = (statistics.median(r["wall_s"] for r in traced)
                        - statistics.median(r["wall_s"] for r in plain))
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {name: {"value": statistics.median(r[name] for r in plain), "unit": unit}
                   for name, unit in (("wall_s", "s"), ("setup_s", "s"),
                                      ("peak_rss_mb", "MB"))} if plain else {}
    correct = died == 0 and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
