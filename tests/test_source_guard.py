"""Dead code guard for the library modules, read with ast only.

Every module of src/hombench other than __init__ must use every name it
imports, and every module-level _private function must be referenced
somewhere in src/ besides its own definition.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hombench"


def _modules():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _imported(tree):
    """The names an import statement binds in the module."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [alias.asname or alias.name for alias in node.names]
    return names


def _loaded(tree):
    """The names read anywhere in the module: bare names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_no_unused_imports():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue
        loaded = _loaded(tree)
        unused += ["%s: %s" % (name, imported) for imported in _imported(tree) if imported not in loaded]
    assert unused == []


def test_every_private_function_is_referenced():
    modules = _modules()
    referenced = set()
    for tree in modules.values():
        referenced |= _loaded(tree)
        referenced |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                       for alias in node.names}
    unreferenced = ["%s: %s" % (name, node.name) for name, tree in modules.items() for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                    and not node.name.startswith("__") and node.name not in referenced]
    assert unreferenced == []
