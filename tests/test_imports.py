"""Every name a module in src/ or tests/ imports is used in that module, and
every private top-level name src/ defines is read in src/: a helper that only
tests call belongs in tests/oracles.py."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import src_env

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py"))
MODULES = sorted([*SOURCES, *(ROOT / "tests").rglob("*.py")])


def unused_imports(source: str):
    """(line, name) of each imported name that the module never reads.  A
    dotted `import a.b` binds `a`; names listed in `__all__` count as used,
    as re-exports; `from __future__` imports are compiler directives."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_unused_and_keeps_reexports():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy.linalg\n"
        "from a import b, c as d, e\n"
        "__all__ = ['e']\n"
        "numpy.linalg.norm(d)\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "b")]


def unread_private_names(sources):
    """(module, name) of each private top-level name (`_x`, not dunder) that
    a module of `sources` ({module: source}) defines and none reads.  A read
    loads the bare name or an attribute of that name (`mod._x`); importing it
    is not one."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [
                (module, n) for n in names
                if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))
            ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [(module, name) for module, name in defined if name not in read]


def test_private_names_are_read_in_src():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in SOURCES}
    assert unread_private_names(sources) == []


def test_private_scan_finds_names_no_module_reads():
    sources = {
        "a.py": (
            "__version__ = '1'\n"
            "_READ = 1\n"
            "_only_tests = 2\n"
            "_imported: int = 3\n"
            "def _helper():\n"
            "    return _READ\n"
            "class _Attr:\n"
            "    pass\n"
        ),
        "b.py": "import a\nfrom a import _imported\na._helper()\nprint(a._Attr)\n",
    }
    assert unread_private_names(sources) == [("a.py", "_only_tests"), ("a.py", "_imported")]


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy.random is imported on the first stochastic draw, not by `import qhsd`
    code = "import sys, qhsd.cli; print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
    out = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def qhsd_imports(source: str):
    """The qhsd modules a module's source imports, at any depth:
    `import qhsd.x`, `from qhsd.x import ...` and `from qhsd import x`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("qhsd.")}
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("qhsd"):
            if node.module == "qhsd":
                found |= {a.name for a in node.names}
            else:
                found.add(node.module.split(".")[1])
    return found


def test_package_layers():
    # states <- {encoding, interferometry} <- clustering <- cli: the exact
    # linear algebra stands alone, and the measurement model does not need
    # the machine-learning encoding
    layers = {
        p.stem: qhsd_imports(p.read_text())
        for p in SOURCES if p.parent.name == "qhsd" and p.stem != "__init__"
    }
    assert layers == {
        "states": set(),
        "encoding": {"states"},
        "interferometry": {"states"},
        "clustering": {"encoding", "interferometry", "states"},
        "cli": {"clustering", "interferometry", "states"},
    }


def test_layer_scan_reads_every_import_form():
    source = (
        "import qhsd.states, numpy\n"
        "from qhsd import encoding\n"
        "from qhsd.interferometry import NoiseModel\n"
        "def f():\n"
        "    from qhsd.clustering import kmeans\n"
    )
    assert qhsd_imports(source) == {"states", "encoding", "interferometry", "clustering"}
