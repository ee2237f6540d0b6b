"""The package imports nothing but the standard library, numpy and itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "star_kge"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "star_kge"}


def outside_imports(source: str) -> list[str]:
    """The modules that ``source`` imports from outside ``ALLOWED``; a
    relative import is the package's own."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return sorted({name for name in names if name.split(".")[0] not in ALLOWED})


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = {path.name: outside_imports(path.read_text(encoding="utf-8")) for path in sources}
    assert {name: modules for name, modules in found.items() if modules} == {}


def test_outside_imports_are_found_at_any_depth():
    source = "import os, scipy.sparse\nfrom . import data\ndef f():\n    from pandas import DataFrame\n    import numpy.linalg\n"
    assert outside_imports(source) == ["pandas", "scipy.sparse"]
