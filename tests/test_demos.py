"""The suite does not run the demos (the CI workflow's "Demos" step runs
each in an empty directory), so check statically that every name they
import from the package still exists."""

import ast
from pathlib import Path

import pytest

import scopedepth

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "scopedepth"
        for alias in node.names
    ]
    missing = [n for n in names if not hasattr(scopedepth, n)]
    assert not missing, f"{path.name} imports missing names {missing}"
