"""The package imports nothing but the standard library, numpy and itself,
keeps its thread and BLAS handling in one module, passes every private
keyword-only parameter that it defines and writes every file through one
atomic helper."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "star_kge"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "star_kge"}


#: thread and BLAS handling lives in ``_threads.py`` alone
THREAD_MODULES = {"threading", "queue", "ctypes", "contextvars", "concurrent"}


def imported(source: str) -> set[str]:
    """The modules that ``source`` imports at any depth, leaving out its
    relative imports, which are the package's own."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def outside_imports(source: str) -> list[str]:
    """The modules that ``source`` imports from outside ``ALLOWED``."""
    return sorted(name for name in imported(source) if name.split(".")[0] not in ALLOWED)


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = {path.name: outside_imports(path.read_text(encoding="utf-8")) for path in sources}
    assert {name: modules for name, modules in found.items() if modules} == {}


def test_only_the_thread_module_imports_thread_or_blas_modules():
    users = {
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if any(name.split(".")[0] in THREAD_MODULES for name in imported(path.read_text(encoding="utf-8")))
    }
    assert users == {"_threads.py"}


def test_numpy_floor_has_vecdot():
    """``model.score`` and the pattern checks call ``np.vecdot``, new in numpy 2.0."""
    # a regex, not tomllib: the package supports Python 3.10
    floor = re.search(r'"numpy>=(\d+)\.(\d+)', (ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert floor is not None
    assert tuple(map(int, floor.groups())) >= (2, 0)


def test_outside_imports_are_found_at_any_depth():
    source = "import os, scipy.sparse\nfrom . import data\ndef f():\n    from pandas import DataFrame\n    import numpy.linalg\n"
    assert outside_imports(source) == ["pandas", "scipy.sparse"]
    assert imported(source) == {"os", "scipy.sparse", "pandas", "numpy.linalg"}


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
    assert {("batch_loss", "_workspace"), ("score_batch", "_tile")} <= defined
    assert defined - passed == set()


def test_private_keywords_are_found_in_definitions_and_calls():
    source = "def f(a, *, _x=None, _y=None, z=0):\n    pass\nf(1, _x=2, z=3)\nm.g(_y=1)\nh(**kw)\n"
    defined, passed = private_keywords([source])
    assert defined == {("f", "_x"), ("f", "_y")}
    assert passed == {("f", "_x"), ("f", "z"), ("g", "_y")}


def _writes(call: ast.Call) -> bool:
    """Whether ``call`` opens a file for writing: ``open(path, mode)`` or
    ``path.open(mode)`` with ``w``, ``a`` or ``x`` in a literal mode, or with
    a mode that is not a literal; or ``.write_text`` or ``.write_bytes``."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
        return True
    if isinstance(func, ast.Name) and func.id == "open":
        at = 1
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        at = 0
    else:
        return False
    modes = call.args[at : at + 1] + [k.value for k in call.keywords if k.arg == "mode"]
    if not modes:
        return False
    mode = modes[0]
    return not isinstance(mode, ast.Constant) or bool(set(str(mode.value)) & set("wax"))


def file_writes(source: str) -> list[str]:
    """The dotted names of the functions (or ``<module>``) of ``source``
    that write a file themselves, once per write, in source order."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call) and _writes(child):
                found.append(scope or "<module>")
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


#: the only writes outside ``_files.replacing``: the training log is
#: streamed, so that a failed run keeps the records of its finished epochs
IN_PLACE_WRITES = {("cli.py", "_run_single")}


def test_every_file_is_written_through_the_atomic_helper():
    writes = {
        (path.name, scope)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "_files.py"
        for scope in file_writes(path.read_text(encoding="utf-8"))
    }
    assert writes == IN_PLACE_WRITES


def test_file_writes_are_found_by_mode_and_method():
    source = (
        "open(p)\nopen(p, 'rb')\nopen(p, encoding='utf-8')\np.open()\np.read_text()\n"
        "open(p, mode='w')\n"
        "def f(m):\n    with open(p, 'ab') as fh:\n        pass\n    open(p, m)\n    p.write_text('x')\n"
        "class C:\n    def g(self):\n        p.open('x')\n"
        "        def h():\n            p.write_bytes(b'')\n"
    )
    assert file_writes(source) == ["<module>", "f", "f", "f", "C.g", "C.g.h"]
