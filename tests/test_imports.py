"""Import hygiene of the package source, read from its syntax trees.

Every module but the package __init__ (which re-exports) uses each name it
imports, and the command-line module imports no private name, so a
refactor that stops using a helper, or reaches into another module's
internals from the entry point, shows here.
"""

import ast
from pathlib import Path

import mdqo

SRC = Path(mdqo.__file__).resolve().parent


def imported(tree: ast.Module) -> dict[str, str]:
    """The name each import binds in the module, mapped to what it imports."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = alias.name
    return names


def test_every_module_uses_the_names_it_imports():
    unused = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names = sorted(set(imported(tree)) - used)
        if names:
            unused[path.name] = names
    assert unused == {}


def test_cli_imports_no_private_name():
    tree = ast.parse((SRC / "cli.py").read_text())
    private = sorted(name for name in imported(tree).values() if name.startswith("_"))
    assert private == []


def test_every_private_definition_is_used():
    # a private module-level function or class that src names nowhere but
    # at its own definition is dead, whatever the tests still call
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    defined = {
        (name, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    }
    assert len(defined) > 40
    assert sorted(d for d in defined if d[1] not in named) == []
