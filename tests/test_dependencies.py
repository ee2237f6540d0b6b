"""The package imports nothing but the standard library, numpy and itself,
and passes every private keyword-only parameter that it defines."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "star_kge"
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


def test_numpy_floor_has_vecdot():
    """``model.score`` and the pattern checks call ``np.vecdot``, new in numpy 2.0."""
    # a regex, not tomllib: the package supports Python 3.10
    floor = re.search(r'"numpy>=(\d+)\.(\d+)', (ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert floor is not None
    assert tuple(map(int, floor.groups())) >= (2, 0)


def test_outside_imports_are_found_at_any_depth():
    source = "import os, scipy.sparse\nfrom . import data\ndef f():\n    from pandas import DataFrame\n    import numpy.linalg\n"
    assert outside_imports(source) == ["pandas", "scipy.sparse"]



def private_keywords(sources: list[str]) -> tuple[set, set]:
    """The (function, keyword) pairs of the ``_``-prefixed keyword-only
    parameters that ``sources`` define, and the (callee, keyword) pairs that
    their calls pass by name; a callee is named by its last attribute."""
    defined, passed = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.update((node.name, a.arg) for a in node.args.kwonlyargs if a.arg.startswith("_"))
            elif isinstance(node, ast.Call):
                callee = getattr(node.func, "attr", getattr(node.func, "id", None))
                passed.update((callee, k.arg) for k in node.keywords if k.arg is not None)
    return defined, passed


def test_every_private_keyword_is_passed_in_the_package():
    """A private hook that nothing in the package passes is dead code."""
    defined, passed = private_keywords([path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))])
    assert {("batch_loss", "_workspace"), ("filtered_rank", "_workspace"), ("score_batch", "_tile")} <= defined
    assert defined - passed == set()


def test_private_keywords_are_found_in_definitions_and_calls():
    source = "def f(a, *, _x=None, _y=None, z=0):\n    pass\nf(1, _x=2, z=3)\nm.g(_y=1)\nh(**kw)\n"
    defined, passed = private_keywords([source])
    assert defined == {("f", "_x"), ("f", "_y")}
    assert passed == {("f", "_x"), ("f", "z"), ("g", "_y")}
