"""Every function, class and method defined in ``src/torusflow`` is used there.

A name that only tests reach belongs with the tests (``tests/oracles.py``)
or goes.  The census counts a definition as used when some ``ast.Name`` or
``ast.Attribute`` in a package module other than ``__init__.py`` carries its
name; dunder methods are called by the interpreter and are exempt.  Every
name a module imports must likewise be used in that module, and every
attribute a method stores on ``self`` must be read as an attribute, by name,
somewhere in the package.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "torusflow"


def _census():
    defined = []       # (module, line, name)
    referenced = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((path.name, node.lineno, node.name))
            if path.name == "__init__.py":
                continue
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined, referenced


def test_every_definition_is_referenced():
    defined, referenced = _census()
    unused = [f"{mod}:{line} {name}" for mod, line, name in defined
              if name not in referenced]
    assert not unused, "defined in src but never referenced there:\n" + "\n".join(unused)


def _unused_imports(tree):
    """Names bound by the module's imports that nothing in it reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_every_import_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        unused += [f"{path.name}:{line} {name}" for line, name in _unused_imports(tree)]
    assert not unused, "imported in src but never used there:\n" + "\n".join(unused)


def test_every_stored_attribute_is_read():
    stored = []        # (module, line, name)
    read = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.ctx, ast.Store):
                if isinstance(node.value, ast.Name) and node.value.id == "self":
                    stored.append((path.name, node.lineno, node.attr))
            elif path.name != "__init__.py":
                read.add(node.attr)
    unread = [f"{mod}:{line} {name}" for mod, line, name in stored
              if name not in read]
    assert not unread, "stored on self in src but never read there:\n" + "\n".join(unread)
