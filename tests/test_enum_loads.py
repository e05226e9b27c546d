"""No function under ``src/repro`` loads a member off an ``Enum`` class.

``EnumType`` defines ``__getattr__``, so CPython 3.11 never specializes a
``VCState.IDLE`` load inside a function: each one takes the slow
class-getattr hook, several times the cost of a global. A module binds
the members it needs once, at module level (``repro.noc.buffers.IDLE``),
and functions load those names.
"""

import ast
from pathlib import Path

import repro

PKG = Path(repro.__file__).resolve().parent
ENUM_BASES = {"Enum", "IntEnum", "Flag", "IntFlag", "StrEnum"}


def _base_name(node: ast.expr) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _enum_classes(trees) -> set:
    """Names of the ``Enum`` subclasses defined in the package, including
    subclasses of those."""
    classes = [
        node for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    ]  # fmt: skip
    found = set(ENUM_BASES)
    grew = True
    while grew:
        grew = False
        for cls in classes:
            if cls.name not in found and any(_base_name(b) in found for b in cls.bases):
                found.add(cls.name)
                grew = True
    return found - ENUM_BASES


def enum_loads_in_functions(trees) -> list:
    """``path:line Class.member`` for every attribute load on an ``Enum``
    subclass inside a function body (defaults and decorators run at module
    level, so they are not inside)."""
    enums = _enum_classes(trees)
    hits = []
    for path, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            for node in (n for stmt in body for n in ast.walk(stmt)):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and _base_name(node.value) in enums
                ):
                    hits.append(f"{path}:{node.lineno} {_base_name(node.value)}.{node.attr}")
    return sorted(set(hits))


def _parse(root: Path) -> dict:
    return {
        str(path.relative_to(root)): ast.parse(path.read_text(), str(path))
        for path in sorted(root.rglob("*.py"))
    }


def test_no_enum_member_load_inside_a_function():
    assert enum_loads_in_functions(_parse(PKG)) == []


def test_guard_sees_a_load_in_a_method_but_not_at_module_level():
    tree = ast.parse(
        "import enum\n"
        "class Base(enum.IntEnum):\n"
        "    pass\n"
        "class State(Base):\n"
        "    A = 0\n"
        "A = State.A\n"
        "class User:\n"
        "    def f(self, x=State.A):\n"
        "        return x is A or x is State.A\n"
        "g = lambda x: x is State.A\n"
    )
    assert enum_loads_in_functions({"m.py": tree}) == ["m.py:10 State.A", "m.py:9 State.A"]
