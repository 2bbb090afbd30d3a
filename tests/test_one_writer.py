"""Every file the program writes is written by ``report.write_output``.

An AST scan of ``src/``. A call that can write a file is allowed only
inside ``report.write_output`` and ``ResponseCache.put``: the response
cache keeps its own write, since a torn entry already reads as a logged
miss. Such a call is ``open``, ``io.open`` or ``os.fdopen`` with a mode
that is not a constant free of "w", "a", "x" and "+"; ``<path>.open`` with
such a mode; ``os.open``; ``.write_text``; and ``.write_bytes``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ALLOWED = {"report.write_output", "annotation.ResponseCache.put"}


def _writes(mode: ast.expr | None) -> bool:
    """Whether an open mode may write: absent means read, and a mode that is
    not a constant string is taken to write."""
    if mode is None:
        return False
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return any(ch in mode.value for ch in "wax+")


def _mode(call: ast.Call, index: int) -> ast.expr | None:
    keyword = next((kw.value for kw in call.keywords if kw.arg == "mode"), None)
    return call.args[index] if len(call.args) > index else keyword


def _opens_for_writing(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id == "open" and _writes(_mode(call, 1))
    if not isinstance(func, ast.Attribute):
        return False
    owner = func.value.id if isinstance(func.value, ast.Name) else None
    if func.attr in ("write_text", "write_bytes") or (owner, func.attr) == ("os", "open"):
        return True
    if (owner, func.attr) in (("io", "open"), ("os", "fdopen")):
        return _writes(_mode(call, 1))
    return func.attr == "open" and _writes(_mode(call, 0))


def writing_calls(tree: ast.AST, module: str) -> list[tuple[str, int]]:
    """(qualified name of the enclosing definition, line) of every call in
    tree that can write a file."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            if isinstance(child, ast.Call) and _opens_for_writing(child):
                found.append((scope, child.lineno))
            visit(child, inner)

    visit(tree, module)
    return found


def test_only_write_output_and_the_cache_write_files():
    sites = [
        f"{path.relative_to(SRC)}:{line} in {scope}"
        for path in sorted(SRC.rglob("*.py"))
        for scope, line in writing_calls(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        if scope not in ALLOWED
    ]
    assert sites == []


def test_the_scan_sees_each_way_to_write_a_file():
    source = '''
def writes(p, mode):
    open(p, "w")
    open(p, mode="a")
    open(p, mode)
    io.open(p, "x")
    os.fdopen(3, "r+")
    os.open(p, os.O_WRONLY)
    p.open("wb")
    p.open(mode="w", encoding="utf-8")
    p.write_text("x")
    p.write_bytes(b"x")

def reads(p):
    open(p)
    open(p, "rb")
    io.open(p, "r")
    os.fdopen(3)
    p.open()
    p.open("rb")
    p.open(encoding="utf-8")
    p.read_text()
'''
    found = writing_calls(ast.parse(source), "m")
    assert {scope for scope, _ in found} == {"m.writes"}
    assert len(found) == 10
