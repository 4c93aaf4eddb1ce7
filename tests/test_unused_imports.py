"""No source file imports a name it never uses.

A stdlib ``ast`` scan of every Python file under ``src/``, ``tests/`` and
``demos/``: each name an import binds must be read somewhere in its file.
Exempt are the imports of ``__init__.py`` files (re-exports), names a
module lists in ``__all__``, and ``__future__`` imports. ``perfbench/`` is
not scanned.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "demos")


def unused_imports(source):
    """The names the imports of ``source`` bind and the module never reads,
    with the line of each import, in line order."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``.
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(((line, name) for name, line in bound.items()
                   if name != "*" and name not in used))


def test_the_scan_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import numpy as np\n"
              "import os.path\n"
              "from json import dumps, loads\n"
              "__all__ = ['loads']\n"
              "print(np.pi, os.sep, dumps)\n")
    assert unused_imports(source) == []
    assert unused_imports(source.replace("os.sep", "0")) == [(2, "os")]
    assert unused_imports("import sys\nfrom math import pi as tau\n") == [(1, "sys"), (2, "tau")]


def test_no_file_imports_a_name_it_never_uses():
    found = {}
    for path in sorted(path for top in SCANNED for path in (ROOT / top).rglob("*.py")):
        unused = [] if path.name == "__init__.py" else unused_imports(path.read_text())
        if unused:
            found[str(path.relative_to(ROOT))] = unused
    assert found == {}
