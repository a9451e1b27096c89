"""Every module-level import in src/dgmodels is used by the module that makes it.

`__init__.py` re-exports names it never reads, and `from __future__` imports
change compilation rather than bind a name; both are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dgmodels"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that no expression or annotation reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        for field in ("annotation", "returns"):
            note = getattr(node, field, None)
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                names = ast.walk(ast.parse(note.value))
                read.update(n.id for n in names if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in read]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_checker_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\nfrom typing import Iterator, Mapping\n"
        "def f(x: 'Mapping') -> int:\n    return os.sep\n"
    )
    assert unused_imports(source) == ["Iterator (line 3)"]
