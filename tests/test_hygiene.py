"""Source hygiene: every name a lyapnav module imports is used in it,
every function and class it defines is referenced somewhere, no module
reads another module's private name, every lyapnav name the README
quotes exists, and pyproject.toml's test extra pins the versions CI installs."""

import ast
import functools
import importlib
import re
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


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source):
    """``module.name`` for each _-prefixed, non-dunder name that ``source``
    reads from a module it imports relatively (lyapnav's modules import
    each other so), as an attribute of the module or by a from-import."""
    tree = ast.parse(source)
    modules, reads = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module is None:  # from . import envs
                modules.update(alias.asname or alias.name for alias in node.names)
            else:  # from .envs import RobotKind
                reads += [f"{node.module}.{alias.name}" for alias in node.names if _private(alias.name)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            if _private(node.attr):
                reads.append(f"{node.value.id}.{node.attr}")
    return sorted(reads)


def test_private_reads_finds_another_modules_private_names():
    source = (
        "from . import envs, nn as _nn\nfrom .envs import _step, RobotKind\n"
        "def f(self, other):\n"
        "    return envs._featurize_one, envs.__name__, _nn._x, self._own, other._attr, envs.step\n"
    )
    assert private_reads(source) == ["_nn._x", "envs._featurize_one", "envs._step"]
    assert private_reads("import numpy as np\nnp._core\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_reads_another_modules_private_names(path):
    assert private_reads(path.read_text()) == []


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


def _referencing_sources():
    return [p.read_text() for d in ("src", "tests", "bench") for p in sorted((REPO / d).rglob("*.py"))]


def test_every_definition_is_referenced():
    assert unreferenced_definitions([p.read_text() for p in SOURCES], _referencing_sources()) == []


def _defaulted_parameters(tree):
    """(callable name, parameter name, position among the positional
    parameters a caller passes, or None if keyword-only) for every defaulted
    parameter of every function in ``tree``. A method's ``self`` is not
    counted, and ``__init__`` is called by its class name."""
    out = []
    for owner in ast.walk(tree):
        for node in ast.iter_child_nodes(owner):
            if not isinstance(node, ast.FunctionDef):
                continue
            method = isinstance(owner, ast.ClassDef) and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
            )
            name = owner.name if method and node.name == "__init__" else node.name
            positional = node.args.posonlyargs + node.args.args
            first_default = len(positional) - len(node.args.defaults)
            for i, arg in enumerate(positional[first_default:], first_default):
                out.append((name, arg.arg, i - method))
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    out.append((name, arg.arg, None))
    return out


def never_passed_defaults(defining, calling):
    """``name(parameter)`` for every defaulted parameter of a function in the
    ``defining`` sources that no call in the ``calling`` sources to a
    function of that name passes, by keyword or by position. A call that
    spreads ``*args`` or ``**kwargs`` passes nothing."""
    keywords = set()  # (callee name, keyword)
    most = {}  # callee name -> most positional arguments in one call
    for source in calling:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            positional = 0
            for arg in node.args:
                if isinstance(arg, ast.Starred):
                    break
                positional += 1
            most[callee] = max(most.get(callee, 0), positional)
            keywords.update((callee, kw.arg) for kw in node.keywords if kw.arg is not None)
    missing = []
    for source in defining:
        for name, param, position in _defaulted_parameters(ast.parse(source)):
            by_position = position is not None and most.get(name, 0) > position
            if not by_position and (name, param) not in keywords:
                missing.append(f"{name}({param})")
    return sorted(set(missing))


def test_never_passed_defaults_finds_unused_parameters():
    source = (
        "def f(a, b=1, c=2, *, d=3):\n    pass\n"
        "class K:\n"
        "    def __init__(self, x, y=0):\n        pass\n"
        "    def m(self, z=0):\n        pass\n"
        "    @staticmethod\n"
        "    def s(w=0):\n        pass\n"
    )
    calls = "f(0, 1)\nK(1)\nK(*xs)\nobj.m(z=2)\nK.s(5)\nf(*args, c=4)\n"
    assert never_passed_defaults([source], [source, calls]) == ["K(y)", "f(d)"]
    assert never_passed_defaults([source], [calls, "f(0, 1, 2, d=0)\nK(1, 2)\n"]) == []


def _program_sources():
    """The callers that count for defaults: the package, the benchmark, and
    the acceptance suite with its fixtures. A default that only unit tests
    pass is still one setting to every command and workload."""
    paths = [*sorted((REPO / "src").rglob("*.py")), *sorted((REPO / "bench").rglob("*.py"))]
    return [p.read_text() for p in [*paths, REPO / "tests" / "test_acceptance.py", REPO / "tests" / "conftest.py"]]


# defaults that only tests pass, on purpose
PASSED_BY_TESTS_ONLY = [
    # the console script calls main() and argparse reads sys.argv; tests pass
    # argv to run commands in-process
    "main(argv)",
]


def test_every_default_is_passed_somewhere():
    # a default no caller overrides is a constant in disguise
    assert never_passed_defaults([p.read_text() for p in SOURCES], _program_sources()) == PASSED_BY_TESTS_ONLY


# a backticked span that starts with a lyapnav module and an attribute
README_NAME = re.compile(
    r"(?:lyapnav\.)?(nn|envs|colearn|lyapunov_eval|planner|monitor|harness|cli)((?:\.[A-Za-z_]\w*)+)"
)


def readme_names(text):
    """(module, attribute path) of each backticked dotted lyapnav name in
    ``text``, fenced code blocks left out."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    matches = (README_NAME.match(span) for span in re.findall(r"`([^`\n]+)`", text))
    return [(m.group(1), m.group(2)[1:].split(".")) for m in matches if m]


def test_readme_names_finds_quoted_names():
    text = "`envs.step(kind, s, a)`, `lyapnav.colearn.TrainConfig.gamma` and `lyapnav.nn`\n```sh\n`cli.x`\n```\n"
    assert readme_names(text) == [("envs", ["step"]), ("colearn", ["TrainConfig", "gamma"])]


def test_every_readme_name_exists():
    names = readme_names((REPO / "README.md").read_text())
    assert names
    missing = []
    for module, path in names:
        try:
            functools.reduce(getattr, path, importlib.import_module(f"lyapnav.{module}"))
        except AttributeError:
            missing.append(".".join([module, *path]))
    assert missing == []


def test_the_test_extra_pins_what_ci_installs():
    # the pins, the cached artifacts and the training digests were recorded
    # with these versions (numpy 2.4.6's bundled OpenBLAS 0.3.31)
    tomllib = pytest.importorskip("tomllib")
    extra = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]["optional-dependencies"]["test"]
    workflow = (REPO / ".github" / "workflows" / "tier1.yml").read_text()
    (install,) = [line for line in workflow.splitlines() if "pip install" in line]
    installed = re.findall(r"[A-Za-z][\w.-]*==[\w.]+", install)
    assert installed and sorted(extra) == sorted(installed)
