"""The README's code examples compile and import only names the package has."""

import ast
import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_every_python_block_compiles_and_imports_names_that_exist():
    blocks = python_blocks()
    assert len(blocks) >= 4
    imported = 0
    for number, source in enumerate(blocks, start=1):
        compile(source, f"README.md python block {number}", "exec")
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "bforage":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (
                        f"README python block {number}: {node.module} has no {alias.name}")
                    imported += 1
    assert imported
