"""The dev tools under tools/ and the demos under demos/ use only sislab's
public names.

Most tools take minutes, so no test runs them, and a private helper they
import could be renamed or deleted without any test noticing. This parses
them instead and fails on any ``from sislab... import _name``; the demos call
the kernels directly, so the same check keeps them off private names such as
the experiments' block length. The kernel width sweep is fast at a tiny size,
so it also runs here.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOLS = sorted((ROOT / "tools").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", TOOLS + DEMOS, ids=lambda p: p.name)
def test_tool_imports_only_public_names(script):
    tree = ast.parse(script.read_text(), filename=str(script))
    private = [f"{node.module}.{alias.name}"
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "sislab"
               for alias in node.names if alias.name.startswith("_")]
    assert not private, f"{script.name} imports private names: {private}"


def test_tools_are_found():
    assert {p.name for p in TOOLS} >= {"derive_oracles.py", "kernel_bench.py"}


def test_kernel_bench_runs_small():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "kernel_bench.py"),
         "--path-steps", "64"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split()[2:4] == ["lcm_evolve", "milstein_evolve"]
    assert header.split()[4:8] == ["lcm_evolve_x12", "lcm_evolve_rec", "lcm_evolve_extinct",
                                   "milstein_evolve_rec"]
    assert [row.split()[:2] for row in rows] == [
        ["1", "64"], ["25", "2"], ["64", "1"], ["128", "1"], ["512", "1"], ["1024", "1"],
        ["8192", "1"]]
    assert all(float(cell) > 0.0 for row in rows for cell in row.split()[2:])
