"""The dev tools under tools/ use only sislab's public names.

No test runs the tools (some take minutes), so a private helper they import
could be renamed or deleted without any test noticing. This parses them
instead and fails on any ``from sislab... import _name``.
"""

import ast
from pathlib import Path

import pytest

TOOLS = sorted((Path(__file__).resolve().parents[1] / "tools").glob("*.py"))


@pytest.mark.parametrize("script", TOOLS, ids=lambda p: p.name)
def test_tool_imports_only_public_names(script):
    tree = ast.parse(script.read_text(), filename=str(script))
    private = [f"{node.module}.{alias.name}"
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "sislab"
               for alias in node.names if alias.name.startswith("_")]
    assert not private, f"{script.name} imports private names: {private}"


def test_tools_are_found():
    assert {p.name for p in TOOLS} >= {"diag_error_stat.py", "diag_violation.py"}
