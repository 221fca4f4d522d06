"""Source hygiene: every name a lyapnav module imports is used in it, and
every function and class it defines is referenced somewhere."""

import ast
from pathlib import Path

import pytest

import lyapnav

SOURCES = sorted(Path(lyapnav.__file__).parent.glob("*.py"))
REPO = Path(__file__).resolve().parents[1]


def unused_imports(source):
    """Names bound by the import statements of ``source`` that it never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_leftover_names():
    source = "import os.path\nfrom dataclasses import dataclass, replace\n\n@dataclass\nclass A:\n    x: int = 0\n"
    assert unused_imports(source) == ["os", "replace"]
    assert unused_imports("import numpy as np\n\ndef f():\n    return np.zeros(1)\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_definitions(defining, referencing):
    """Non-dunder function and class names defined in the ``defining`` sources
    that no ``referencing`` source reads as a name or an attribute."""
    defined = set()
    for source in defining:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
    referenced = set()
    for source in referencing:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return sorted(n for n in defined - referenced if not (n.startswith("__") and n.endswith("__")))


def test_unreferenced_definitions_finds_dead_code():
    source = (
        "class A:\n"
        "    def __init__(self):\n        pass\n"
        "    def used(self):\n        pass\n"
        "    def dead(self):\n        pass\n"
    )
    assert unreferenced_definitions([source], [source, "A().used()\n"]) == ["dead"]


def test_every_definition_is_referenced():
    referencing = [p.read_text() for d in ("src", "tests", "bench") for p in sorted((REPO / d).rglob("*.py"))]
    assert unreferenced_definitions([p.read_text() for p in SOURCES], referencing) == []
