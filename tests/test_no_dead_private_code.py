"""Every private name defined in the package is used somewhere in the package.

A private name (one leading underscore, not a dunder) is a def, a class or
an assigned name. It counts as used when it is read, as a name, an
attribute or an imported name, anywhere in ``src/shockbox``. Tests and the
benchmark do not count: a helper that only they call belongs with them.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shockbox"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__") and name != "_"


def defined_and_used(trees):
    defined, used = {}, set()
    for path, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    defined.setdefault(node.id, f"{path.name}:{node.lineno}")
                else:
                    used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return {name: where for name, where in defined.items() if _is_private(name)}, used


def test_every_private_name_is_used_in_the_package():
    trees = [(path, ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]
    defined, used = defined_and_used(trees)
    assert defined, "no private names found; is the package path right?"
    dead = sorted(f"{name} ({where})" for name, where in defined.items() if name not in used)
    assert not dead, dead


def test_the_scan_finds_an_unused_private_helper():
    source = "def _used():\n    pass\n\ndef _unused():\n    _used()\n\n_FLAG = 1\n"
    defined, used = defined_and_used([(PACKAGE / "example.py", ast.parse(source))])
    assert sorted(name for name in defined if name not in used) == ["_FLAG", "_unused"]
