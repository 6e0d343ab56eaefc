"""Every public def and class of the package is used by the package.

A public name is a top-level def or class of ``src/shockbox``, or a method
or property of one of its classes, whose name does not start with an
underscore. A top-level name counts as used when it is read, as a name, an
attribute or an imported name, anywhere in ``src/shockbox``. A method
counts as used only when it is read as an attribute there
(``obj.method``): a local variable of the same spelling does not use it.
``bench/tracing.py``'s ``TARGETS`` use what they wrap: a function by its
name, a ``Class.method`` target that class's method only. A method that
overrides one of a base class from outside the package
(``argparse.ArgumentParser.error``) is called by that class and is not
counted. A name that only tests call is API kept for the tests; it goes,
and the test states what it needs itself, in ``tests/reference.py`` when it
is a reference the tests compare against. No name is exempt.
"""

import ast
import importlib

from test_bench_targets import load_targets
from test_no_dead_private_code import PACKAGE, defined_and_used


def inherited(module: str, name: str) -> set[str]:
    """The attributes class ``name`` of ``shockbox.<module>`` inherits from
    classes outside the package; empty when the module does not import."""
    try:
        cls = getattr(importlib.import_module(f"shockbox.{module}"), name)
    except ImportError:
        return set()
    outside = [base for base in cls.__mro__[1:] if not base.__module__.startswith("shockbox")]
    return {attr for base in outside for attr in dir(base)}


def public_defs(trees) -> dict[str, str]:
    """Public top-level defs and classes, and public methods as
    ``Class.method``: name -> where."""
    found = {}
    for path, tree in trees:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                found.setdefault(node.name, f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ClassDef):
                hooks = inherited(path.stem, node.name)
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                        if not item.name.startswith("_") and item.name not in hooks:
                            found.setdefault(f"{node.name}.{item.name}", f"{path.name}:{item.lineno}")
    return found


def attribute_reads(trees) -> set[str]:
    """Every name read as an attribute, ``obj.name``."""
    return {
        node.attr
        for _, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def traced_names() -> set[str]:
    # a Class.method target reads the class and that one method
    return {name for _, attr, *_ in load_targets() for name in (attr, attr.partition(".")[0])}


def unused(trees, traced) -> list[str]:
    _, used = defined_and_used(trees)
    attributes = attribute_reads(trees)
    return sorted(
        f"{name} ({where})"
        for name, where in public_defs(trees).items()
        if (name.rpartition(".")[2] not in attributes if "." in name else name not in used)
        and name not in traced
    )


def test_every_public_def_is_used_in_the_package():
    trees = [(path, ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]
    assert public_defs(trees), "no public names found; is the package path right?"
    assert not unused(trees, traced_names())


def test_the_scan_finds_a_public_method_only_tests_call():
    source = (
        "def build():\n    return Box().used()\n\n"
        "class Box:\n    def used(self):\n        return 1\n\n"
        "    def spare(self):\n        return 2\n\n"
        "def traced():\n    pass\n\n"
        "def spare_function():\n    def inner():\n        pass\n"
    )
    trees = [(PACKAGE / "example.py", ast.parse(source))]
    assert [entry.split()[0] for entry in unused(trees, {"traced"})] == [
        "Box.spare",
        "build",
        "spare_function",
    ]


def test_the_scan_resolves_methods_per_class():
    # a local variable does not use the method it is spelt like, and a
    # traced Class.method covers that class's method only
    source = (
        "def fold(rows):\n    failed = [r for r in rows]\n    return failed, Crate().size\n\n"
        "class Crate:\n    @property\n    def size(self):\n        return 1\n\n"
        "    @property\n    def failed(self):\n        return []\n\n"
        "    def at(self):\n        return 2\n\n"
        "class Bound:\n    def at(self):\n        return 3\n"
    )
    trees = [(PACKAGE / "example.py", ast.parse(source))]
    assert [entry.split()[0] for entry in unused(trees, {"fold", "Bound", "Bound.at"})] == [
        "Crate.at",
        "Crate.failed",
    ]
