"""No module under ``src/`` or ``tests/`` imports a name it never uses.

A stdlib ``ast`` scan stands in for a linter, which the project does not
depend on.  An imported name counts as used when the module reads it
anywhere (a string annotation included) or lists it in ``__all__``.
Imports in an ``__init__.py`` are re-exports and never count as unused,
and an import line marked ``# noqa`` is skipped (an import kept for its
side effect, such as registering a plug-in).
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SCANNED = ("src", "tests")


def python_files():
    for top in SCANNED:
        for folder, _, names in os.walk(os.path.join(ROOT, top)):
            for name in sorted(names):
                if name.endswith(".py"):
                    yield os.path.join(folder, name)


def imported_names(tree, lines):
    """(bound name, line) per import outside ``__future__`` and not
    marked ``# noqa``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases = [(alias.asname or alias.name.split(".")[0], alias)
                       for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            aliases = [(alias.asname or alias.name, alias)
                       for alias in node.names if alias.name != "*"]
        else:
            continue
        end = getattr(node, "end_lineno", node.lineno)
        if any("# noqa" in lines[n - 1] for n in range(node.lineno, end + 1)):
            continue
        for name, _ in aliases:
            yield name, node.lineno


def used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A quoted annotation ("Transaction", "Dict[str, X]") reads
            # the names inside it; other strings parse to nothing useful.
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(inner)
                        if isinstance(n, ast.Name))
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)
              and isinstance(node.value, (ast.List, ast.Tuple))):
            used.update(elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant))
    return used


def unused_imports(path):
    """``file:line name`` for every unused import in ``path``."""
    if os.path.basename(path) == "__init__.py":
        return []
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source, filename=path)
    used = used_names(tree)
    rel = os.path.relpath(path, ROOT)
    return [f"{rel}:{line} {name}"
            for name, line in imported_names(tree, source.splitlines())
            if name not in used]


def test_scan_finds_the_sources():
    assert sum(1 for _ in python_files()) > 100


def test_no_unused_imports():
    found = [hit for path in python_files() for hit in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_the_scan_flags_what_it_should(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import json  # noqa: F401\n"
        "from typing import Dict, List\n"
        "from collections import OrderedDict as OD\n"
        "import xml.dom\n"
        "__all__ = ['OD']\n"
        "def f(x: 'Dict[str, int]') -> None:\n"
        "    return xml.dom\n")
    assert unused_imports(str(module)) == [
        f"{os.path.relpath(str(module), ROOT)}:2 os",
        f"{os.path.relpath(str(module), ROOT)}:4 List"]
    init = tmp_path / "__init__.py"
    init.write_text("import os\n")
    assert unused_imports(str(init)) == []
