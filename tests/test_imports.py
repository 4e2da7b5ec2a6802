"""Every import in the package is used, and every private name is read."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "secular"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - read)


def test_finds_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c, d as e\nos.sep\n"
                          "print(e)\n") == ["c"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_privates(sources: dict[str, str]) -> list[str]:
    """Module-level _names, as module.name, that no module reads as a
    name, an attribute or an import."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = [t.id for t in ast.walk(node)
                         if isinstance(t, ast.Name)
                         and isinstance(t.ctx, ast.Store)]
            else:
                names = []
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(f"{m}.{name}" for m, name in defined if name not in read)


def test_finds_an_unread_private():
    assert unread_privates({
        "a": "_T = 1\ndef _f():\n    return _T\nclass _C:\n    pass\n",
        "b": "from .a import _f\ndef _g():\n    pass\nx = a._C\n",
    }) == ["b._g"]


def test_every_private_is_read():
    assert unread_privates({p.stem: p.read_text()
                            for p in sorted(SRC.glob("*.py"))}) == []
