"""One repetition of one benchmark workload, in a fresh process.

    python3 perfbench/rep.py --workload convergence [--seed N] [--trace]

Times the import of sislab plus the parse of the workload's config
(setup_s), then the workload's entry-point calls up to their outputs written
(wall_s), then reads the peak resident memory of this process (peak_rss_mb)
and checks the outputs. With --trace the calls run under perfbench/spans.py
and the per-layer metrics come back as well. Prints one JSON object as its
last line; perfbench/run.py starts it and reads that line.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

CONFIGS = {
    "convergence": "configs/ex5_1.cfg",
    "truncation": "configs/table4_sets.cfg",
    "dynamics": "configs/ex5_4.cfg",
    "violation": "perfbench/violation.cfg",
}
CONVERGENCE_PATHS = 1024
TRUNCATION_PATHS = 1000
FINE_H, FINE_PATHS = 2.0**-15, 128


def cli_op(cli, command, seed, out, extra, check):
    argv = [command, "--config", str(ROOT / CONFIGS[command]), "--seed", str(seed),
            "--out", str(out), *extra]

    def checked(rc):
        return [f"sis-lab {command} exited {rc}"] if rc != 0 else check()

    return command, lambda: cli.main(argv), checked


def workload_ops(name, cli, analysis, cfg, seed, out):
    """The workload's entry-point calls, as (label, call, check of its result)."""
    if name == "convergence":
        return [cli_op(cli, name, seed, out, ["--paths", str(CONVERGENCE_PATHS)],
                       lambda: checks.check_convergence(out))]
    if name == "truncation":
        return [cli_op(cli, name, seed, out, ["--paths", str(TRUNCATION_PATHS)],
                       lambda: checks.check_truncation(out, TRUNCATION_PATHS, cfg.horizon))]
    if name == "dynamics":
        generate = importlib.import_module("sislab.paths").generate
        return [cli_op(cli, name, seed, out, [],
                       lambda: checks.check_dynamics(out, cfg, seed, generate))]

    def violation(h, n_paths, lo, hi):
        label = f"milstein_violation_fraction h={h!r} paths={n_paths}"

        def call():
            # looked up at call time, so a traced run goes through the wrapper
            return analysis.milstein_violation_fraction(
                cfg.model, h=h, t_final=cfg.t_final, n_paths=n_paths, base_seed=seed)

        return label, call, lambda frac: checks.check_fraction(label, frac, lo, hi)

    return [violation(cfg.scheme.h, cfg.n_paths, 0.50, 1.0),
            violation(FINE_H, FINE_PATHS, 0.0, 0.01)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(CONFIGS))
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed; defaults to the config's base_seed")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    tracer = Tracer() if args.trace else None

    start = time.perf_counter()
    cli = importlib.import_module("sislab.cli")
    analysis = importlib.import_module("sislab.analysis")
    if tracer:
        tracer.install()
    cfg = cli.parse_config(ROOT / CONFIGS[args.workload])
    setup_s = time.perf_counter() - start

    seed = args.seed if args.seed is not None else cfg.base_seed
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ops = workload_ops(args.workload, cli, analysis, cfg, seed, out)

    results = []
    start = time.perf_counter()
    for _, call, _ in ops:
        try:
            results.append(call())
        except Exception as exc:  # a raising entry point is a failed operation
            traceback.print_exc()
            results.append(exc)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer:
        tracer.uninstall()

    failures = []
    for (label, _, check), result in zip(ops, results):
        msgs = ([f"{label} raised {result!r}"] if isinstance(result, Exception)
                else check(result))
        failures.append(msgs)
        for msg in msgs:
            print(f"check failed: {msg}", file=sys.stderr)
    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": sum(bool(msgs) for msgs in failures),
    }
    if tracer:
        report["layers"] = layer_metrics(tracer)
        report["missing"] = tracer.missing
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
