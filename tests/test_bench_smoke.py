"""The benchmark's workloads run clean on the current code.

Each workload runs once through perfbench/rep.py, as perfbench/run.py starts
it: the process must exit 0 and print a JSON result as its last line with no
failed operation (every output passes the benchmark's own checks). One traced
run must find every function the span tracer wraps. About 8 s in all.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_rep(*args):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "rep.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["attempted"] >= 1
    assert report["failed"] == 0, proc.stderr
    return report


@pytest.mark.parametrize("workload", ["convergence", "truncation", "dynamics",
                                      "violation"])
def test_workload_runs_clean(workload):
    run_rep("--workload", workload)


def test_traced_run_finds_every_site():
    report = run_rep("--workload", "dynamics", "--trace")
    assert report["missing"] == []
