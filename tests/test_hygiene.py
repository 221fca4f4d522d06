"""Source hygiene: every name a lyapnav module imports is used in it."""

import ast
from pathlib import Path

import pytest

import lyapnav

SOURCES = sorted(Path(lyapnav.__file__).parent.glob("*.py"))


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
