"""Every function, class and method defined in ``src/torusflow`` is used there.

A name that only tests reach belongs with the tests (``tests/oracles.py``)
or goes.  The census counts a definition as used when some ``ast.Name`` or
``ast.Attribute`` in a package module other than ``__init__.py`` carries its
name; dunder methods are called by the interpreter and are exempt.
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
