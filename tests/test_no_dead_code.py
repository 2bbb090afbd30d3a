"""Every module-level function and class of the package is used somewhere.

A definition counts as used when its name appears, outside the definition
itself, as a name, an attribute, an imported name or a string in the
program: ``src/``, ``demos/`` or ``perfbench/`` (which looks some up by
name). Re-exports in ``__init__.py`` count; tests do not. Decorated
definitions are skipped, since the decorator may register them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "factlens"
PROGRAM = [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "demos").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py"))]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_in(node: ast.AST) -> set[str]:
    """Every identifier that node refers to."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def test_every_definition_is_used():
    definitions = []  # (module, top-level node)
    used = set()
    for path in PROGRAM:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, DEFINITIONS) and not node.decorator_list:
                if path.parent == PACKAGE:
                    definitions.append((path.stem, node))
                # A definition's use of its own name (recursion) does not count.
                used |= names_in(node) - {node.name}
            else:
                used |= names_in(node)
    assert definitions
    unused = [f"{module}.{node.name}" for module, node in definitions if node.name not in used]
    assert unused == []
