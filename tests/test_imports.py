"""Every imported name in the package and the tests is used.

A stdlib ast scan: a module's imports bind names, and each bound name must
appear somewhere else in that module as a name or as the base of an
attribute chain. `from __future__` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(ROOT.glob("src/protodro/*.py")) + sorted(ROOT.glob("tests/*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_an_unused_name():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nnp.zeros(1)\n"
    assert unused_imports(source) == ["line 2: os"]
