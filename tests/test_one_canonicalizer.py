"""Entity names are canonicalized in one place.

``entities.py`` maps each mention to its canonical name once, when it
builds an org's entity view, and every analysis reads that view. So an AST
scan of ``src/`` allows a reference to ``canonicalize`` only in
``entities.py`` and in the two public functions that take a caller's
entity name, ``polarity.entity_series`` and ``polarity.negativity_ratio``.
Anywhere else it would canonicalize names that already are canonical.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ALLOWED = {"polarity.entity_series", "polarity.negativity_ratio"}


def canonicalize_uses(tree: ast.AST, module: str) -> list[tuple[str, int]]:
    """(qualified name of the enclosing definition, line) of every reference
    in tree to canonicalize, by name or as an attribute."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            if (isinstance(child, ast.Name) and child.id == "canonicalize") or (
                isinstance(child, ast.Attribute) and child.attr == "canonicalize"
            ):
                found.append((scope, child.lineno))
            visit(child, inner)

    visit(tree, module)
    return found


def test_only_entities_and_the_two_name_taking_functions_canonicalize():
    sites = [
        f"{path.relative_to(SRC)}:{line} in {scope}"
        for path in sorted(SRC.rglob("*.py"))
        if path.stem != "entities"
        for scope, line in canonicalize_uses(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        if scope not in ALLOWED
    ]
    assert sites == []


def test_the_scan_sees_each_way_to_canonicalize():
    source = '''
from .entities import canonicalize
from . import entities as ent_mod

def by_name(name, aliases):
    return canonicalize(name, aliases)

def by_attribute(name, aliases):
    return ent_mod.canonicalize(name, aliases)

class View:
    def names(self, names, aliases):
        return map(canonicalize, names)

def other(name):
    return name.canonical, canonicalized(name)
'''
    found = canonicalize_uses(ast.parse(source), "m")
    assert [scope for scope, _ in found] == ["m.by_name", "m.by_attribute", "m.View.names"]
