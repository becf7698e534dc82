"""The CI workflow picks some tests by ID; a rename must not leave a step
that selects a test which no longer exists."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def test_every_test_id_the_workflow_names_is_a_test_function():
    named = re.findall(r"\b(tests/[\w/]+\.py)::(\w+)", WORKFLOW.read_text())
    assert named
    for path, name in named:
        tree = ast.parse((ROOT / path).read_text())
        tests = {node.name for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name.startswith("test")}
        assert name in tests, f"{path}::{name}"
