"""Every public top-level name, every method and every import in the
package is used.

A name counts as used when ``src/`` or ``perfbench/`` refers to it, as a
name or as an attribute, outside its own definition.  References are read
from the syntax tree, so a use inside an f-string counts and a mention in
a docstring or comment does not.  Tests do not count: a name that only a
test reads belongs in ``tests/``.  A method that overrides one of a base
class is called wherever the base's is, so it counts as used.  A name an
import binds counts as used when its own module reads it as a name
outside the import statement.
"""

import ast
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _definitions(tree: ast.Module):
    """(name, node, class name or None) of each public top-level name and
    of each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node, None
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield target.id, node, None
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name, item, node.name


def _references(tree: ast.Module):
    """(name, line) of each name read and each attribute read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def _imports(tree: ast.Module):
    """(name bound, node) of each import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node


def unused_names(package: str, readers: list[Path]) -> list[str]:
    """``file:name`` of each public top-level name and method defined in
    the modules of ``package`` that neither they nor ``readers`` refer to
    outside the lines of its own definition."""
    modules = sorted(Path(importlib.import_module(package).__path__[0]).glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in [*modules, *readers]}
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            uses.setdefault(name, []).append((path, line))
    unused = []
    for path in modules:
        module = importlib.import_module(package if path.stem == "__init__" else
                                         f"{package}.{path.stem}")
        for name, node, owner in _definitions(trees[path]):
            if owner is not None and any(
                name in vars(base) for base in getattr(module, owner).__mro__[1:]
            ):
                continue  # an override
            own = range(node.lineno, node.end_lineno + 1)
            if all(where == path and line in own for where, line in uses.get(name, [])):
                unused.append(f"{path.name}:{name}")
        read = [(n.id, n.lineno) for n in ast.walk(trees[path])
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)]
        for name, node in _imports(trees[path]):
            own = range(node.lineno, node.end_lineno + 1)
            if all(line in own for used, line in read if used == name):
                unused.append(f"{path.name}:import {name}")
    return unused


def test_every_package_name_is_used():
    readers = sorted((ROOT / "perfbench").glob("*.py"))
    assert unused_names("macrolens", readers) == []


def test_f_string_uses_and_overrides_count_and_docstrings_do_not(tmp_path, monkeypatch):
    package = tmp_path / "unused_names_sample"
    package.mkdir()
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "module.py").write_text(
        '"""Mentions only_in_docstring."""\n'
        "import io\n"
        "\n"
        "def in_f_string():\n"
        "    return 1\n"
        "\n"
        "def only_in_docstring():\n"
        '    """Calls itself: only_in_docstring()."""\n'
        "    return only_in_docstring()\n"
        "\n"
        "class Record(io.StringIO):\n"
        "    def used(self):\n"
        '        """Read below, unlike unused_method."""\n'
        "        return 0\n"
        "\n"
        "    def unused_method(self):\n"
        "        return 0\n"
        "\n"
        "    def readline(self, size=-1):\n"
        "        return ''\n"
        "\n"
        "    def __repr__(self):\n"
        '        return f"{in_f_string()} {self.used()}"\n',
        encoding="utf-8",
    )
    reader = tmp_path / "reader.py"
    reader.write_text("import unused_names_sample.module\nmodule.Record\n", encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    for name in ("unused_names_sample", "unused_names_sample.module"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    assert unused_names("unused_names_sample", [reader]) == [
        "module.py:only_in_docstring", "module.py:unused_method"]


def test_an_unused_import_fails(tmp_path, monkeypatch):
    package = tmp_path / "unused_imports_sample"
    package.mkdir()
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "module.py").write_text(
        '"""Mentions json and Path."""\n'
        "from __future__ import annotations\n"
        "\n"
        "import json\n"
        "import os.path\n"
        "import xml.dom as dom\n"
        "from itertools import chain, repeat as again\n"
        "from pathlib import Path\n"
        "\n"
        "def used():\n"
        "    from io import StringIO\n"
        '    return f"{os.path.sep}{StringIO}", again\n',
        encoding="utf-8",
    )
    reader = tmp_path / "reader.py"
    reader.write_text("import unused_imports_sample.module\nmodule.used()\njson\nchain\n",
                      encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    for name in ("unused_imports_sample", "unused_imports_sample.module"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    assert unused_names("unused_imports_sample", [reader]) == [
        "module.py:import json", "module.py:import dom", "module.py:import chain",
        "module.py:import Path"]
