"""Every script under demos/ runs to the end on this tree's sislab.

No other test imports the demos, so a renamed or deleted library name they
use would otherwise go unnoticed. All four take about 1.6 s together.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert {p.name for p in DEMOS} >= {"convergence_quicklook.py",
                                       "domain_preservation.py",
                                       "long_run_dynamics.py",
                                       "truncation_frequency.py"}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
