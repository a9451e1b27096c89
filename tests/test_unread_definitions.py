"""Every function, class and method defined in src/dgmodels is read somewhere in src/.

A definition counts as read when its name is loaded anywhere in the
package, or appears in a string annotation; a method counts only through an
attribute load (`x.name`), so a local variable of the same name does not
hide it.  The check is by name, so it cannot tell two methods of one name
apart.  Exempt:
dunder methods, which Python calls; names in the export table of
`__init__.py`, the public API; methods that override a standard-library
base class (`error` of an `argparse.ArgumentParser`), which the base class
calls; and names that `perfbench/tracer.py` mentions, which it patches by
name.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dgmodels"
TRACER = ROOT / "perfbench" / "tracer.py"


def _stdlib_class(node: ast.expr, imports: dict[str, str]):
    """The standard-library class a base-class expression names, or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in imports:
        return None
    path = imports[node.id].split(".") + parts[::-1]
    if path[0] == "dgmodels":
        return None
    for split in range(len(path) - 1, 0, -1):  # the longest importable module prefix
        try:
            obj = importlib.import_module(".".join(path[:split]))
        except ImportError:
            continue
        try:
            for attr in path[split:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return None
        return obj if isinstance(obj, type) else None
    return None


def _definitions(tree: ast.Module) -> list[tuple[str, int, bool]]:
    """(name, line, is_method) of every def and class that is neither a dunder
    nor an override of a method of a standard-library base class; is_method
    marks a definition made directly in a class body."""
    imports: dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and not node.level:
            for alias in node.names:
                imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    found = []

    def visit(node: ast.AST, bases: tuple[type, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name
                dunder = name.startswith("__") and name.endswith("__")
                if not dunder and not any(hasattr(base, name) for base in bases):
                    found.append((name, child.lineno, isinstance(node, ast.ClassDef)))
                if isinstance(child, ast.ClassDef):
                    resolved = (_stdlib_class(b, imports) for b in child.bases)
                    visit(child, tuple(b for b in resolved if b is not None))
                    continue
            visit(child, ())

    visit(tree, ())
    return found


def _reads(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(names loaded as variables or named in string annotations, names
    loaded as attributes)."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
        for field in ("annotation", "returns"):
            note = getattr(node, field, None)
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                parsed = ast.walk(ast.parse(note.value))
                names.update(n.id for n in parsed if isinstance(n, ast.Name))
    return names, attrs


def unread_definitions(sources: dict[str, str], exempt: set[str] = frozenset()) -> list[str]:
    """'module: name (line n)' for each definition no source reads, unless exempt."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    names, attrs = set(), set()
    for tree_names, tree_attrs in map(_reads, trees.values()):
        names |= tree_names
        attrs |= tree_attrs
    return [
        f"{module}: {name} (line {line})"
        for module, tree in sorted(trees.items())
        for name, line, is_method in _definitions(tree)
        if name not in attrs and (is_method or name not in names) and name not in exempt
    ]


def _exports() -> set[str]:
    """The names of `__init__.py`'s lazy export table."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    (table,) = (
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["_EXPORTS"]
    )
    return set(ast.literal_eval(table))


def test_every_definition_is_read():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    exempt = _exports() | set(re.findall(r"\w+", TRACER.read_text()))
    assert unread_definitions(sources, exempt) == []


def test_checker_flags_an_unread_definition():
    source = (
        "import argparse\n"
        "class P(argparse.ArgumentParser):\n"
        "    def error(self, message):\n        raise SystemExit(message)\n"
        "    def __repr__(self):\n        return 'P'\n"
        "    def spare(self):\n        return 0\n"
        "    def shadowed(self):\n        return 0\n"
        "def used(x: 'Box') -> int:\n    shadowed = P().parse_args(x)\n    return shadowed\n"
        "class Box:\n    pass\n"
        "def exported():\n    return used\n"
        "def patched():\n    pass\n"
        "def unused():\n    def inner():\n        pass\n    return 1\n"
    )
    found = unread_definitions({"m.py": source}, {"exported", "patched"})
    assert found == [
        "m.py: spare (line 7)",
        "m.py: shadowed (line 9)",
        "m.py: unused (line 20)",
        "m.py: inner (line 21)",
    ]
