"""Every name ``src/repro`` imports is used.

A stdlib-``ast`` scan, so no linter is needed: a module-level or local
``import`` binds names, and each must be read somewhere in its module — as
a name, an attribute base, inside a string annotation, or listed in
``__all__``.  Package ``__init__.py`` files (whose imports are re-exports)
and lines marked ``# noqa: F401`` are skipped.
"""

from __future__ import annotations

import ast
import os
from typing import Iterator, List, Set, Tuple

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro")


def _imported(tree: ast.AST) -> Iterator[Tuple[str, int]]:
    """``(bound name, line)`` for every import binding in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*" and node.module != "__future__":
                    yield alias.asname or alias.name, node.lineno


def _string_annotation_names(annotation: ast.AST) -> Iterator[str]:
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            for inner in ast.walk(parsed):
                if isinstance(inner, ast.Name):
                    yield inner.id


def _used(tree: ast.AST) -> Set[str]:
    """Names the module reads (names, string annotations, ``__all__``)."""
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.arg) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            used.update(_string_annotation_names(annotation))
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(
                item.value for item in node.value.elts if isinstance(item, ast.Constant)
            )
    return used


def unused_imports(path: str) -> List[Tuple[int, str]]:
    """``(line, name)`` of each import binding in the file that is never read."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    lines = source.splitlines()
    tree = ast.parse(source, filename=path)
    used = _used(tree)
    return sorted(
        (line, name)
        for name, line in _imported(tree)
        if name not in used and "noqa: F401" not in lines[line - 1]
    )


def _modules(root: str) -> Iterator[str]:
    for directory, _dirs, files in os.walk(root):
        for name in sorted(files):
            if name.endswith(".py") and name != "__init__.py":
                yield os.path.join(directory, name)


def test_src_imports_are_all_used():
    found = [
        f"{os.path.relpath(path, SRC)}:{line}: {name}"
        for path in _modules(SRC)
        for line, name in unused_imports(path)
    ]
    assert not found, "imported but unused:\n" + "\n".join(found)


def test_scan_flags_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from typing import Dict, List, Optional, TYPE_CHECKING\n"
        "import os.path\n"
        "import math  # noqa: F401\n"
        "if TYPE_CHECKING:\n"
        "    from collections import OrderedDict\n"
        "def f(x: List[int]) -> 'Optional[OrderedDict]':\n"
        "    import json\n"
        "    return os.path.join('a')\n"
    )
    assert unused_imports(str(module)) == [(1, "Dict"), (7, "json")]
