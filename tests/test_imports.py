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
