"""Every function and class defined in the package is used by the program.

A stdlib ast scan: each function, method or class defined in
src/protodro must be named somewhere in src/ or perfbench/, as a name, as
an attribute or in an import. A name that only the tests reach is dead
code. Dunder methods, which Python calls by protocol, are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(ROOT.glob("src/protodro/*.py"))
READERS = sorted(ROOT.glob("src/**/*.py")) + sorted(ROOT.glob("perfbench/**/*.py"))


def definitions(source: str) -> list[tuple[str, int]]:
    """(name, line) of every function, method and class in a module."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [(node.name, node.lineno) for node in ast.walk(ast.parse(source))
            if isinstance(node, kinds)
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def references(source: str) -> set[str]:
    """Every name a module uses, as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def unreferenced(defining: dict[str, str], reading: list[str]) -> list[str]:
    """'module:line name' for each definition that no reading source names."""
    used = set().union(*(references(source) for source in reading))
    return [f"{module}:{line} {name}"
            for module, source in defining.items()
            for name, line in definitions(source) if name not in used]


def test_every_definition_is_used_outside_the_tests():
    defining = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    reading = [path.read_text(encoding="utf-8") for path in READERS]
    assert unreferenced(defining, reading) == []


def test_scan_flags_a_planted_unused_function():
    module = (
        "import numpy as np\n"
        "class Head:\n"
        "    def __init__(self):\n"
        "        self.w = np.zeros(1)\n"
        "    def score(self):\n"
        "        return self.w\n"
        "def planted():\n"
        "    return Head()\n"
    )
    caller = "from mod import Head\nHead().score()\n"
    assert unreferenced({"mod.py": module}, [module, caller]) == ["mod.py:7 planted"]
