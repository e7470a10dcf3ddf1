"""Tripwire: every name the benchmark harness imports from ``repro``
still exists.

``perf/`` runs against the package from outside it, so deleting or
renaming a name it uses would otherwise only show when the harness
itself runs.  This test parses ``perf/*.py`` without executing it and
resolves each ``from repro... import name`` and ``import repro...``.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parent.parent / "perf"


def _repro_imports():
    """(file, module, name) for every import of the package in perf/;
    ``name`` is None for a plain ``import repro.x``."""
    found = []
    for path in sorted(PERF_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module or ""
                if module == "repro" or module.startswith("repro."):
                    found += [(path.name, module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                found += [
                    (path.name, alias.name, None)
                    for alias in node.names
                    if alias.name.split(".")[0] == "repro"
                ]
    return found


IMPORTS = _repro_imports()


def test_perf_imports_something_from_the_package():
    assert IMPORTS, "no repro imports found under perf/"


@pytest.mark.parametrize(
    "source, module, name",
    IMPORTS,
    ids=[
        f"{src}:{mod}" + (f".{name}" if name else "")
        for src, mod, name in IMPORTS
    ],
)
def test_perf_import_resolves(source, module, name):
    mod = importlib.import_module(module)
    if name is None or hasattr(mod, name):
        return
    # ``from pkg import submodule`` also resolves through the importer.
    importlib.import_module(f"{module}.{name}")
