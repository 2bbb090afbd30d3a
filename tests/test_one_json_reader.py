"""Every JSON input the program reads is decoded by ``report.parse_json``.

An AST scan of ``src/``. ``json.loads``, ``json.load`` and
``json.JSONDecoder`` (also imported by name, or from ``json.decoder``) are
allowed only in ``report.parse_json`` and the module-level decoder it uses,
in ``parsing.extract_json_value``, the model-output repair ladder, which is
lenient by design, and in ``corpus.ingest``, which gives each rejected line
its own reason.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ALLOWED = {"report", "report.parse_json", "parsing.extract_json_value", "corpus.ingest"}
DECODERS = {"loads", "load", "JSONDecoder"}
MODULES = {"json", "json.decoder"}


def _dotted(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        owner = _dotted(node.value)
        return None if owner is None else f"{owner}.{node.attr}"
    return None


def decoder_uses(tree: ast.AST, module: str) -> list[tuple[str, int]]:
    """(qualified name of the enclosing definition, line) of every reference
    in tree to a json decoder."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            if isinstance(child, ast.Attribute) and child.attr in DECODERS:
                if _dotted(child.value) in MODULES:
                    found.append((scope, child.lineno))
            if isinstance(child, ast.ImportFrom) and child.module in MODULES:
                if any(alias.name in DECODERS for alias in child.names):
                    found.append((scope, child.lineno))
            visit(child, inner)

    visit(tree, module)
    return found


def test_only_parse_json_and_the_two_lenient_readers_decode_json():
    sites = [
        f"{path.relative_to(SRC)}:{line} in {scope}"
        for path in sorted(SRC.rglob("*.py"))
        for scope, line in decoder_uses(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        if scope not in ALLOWED
    ]
    assert sites == []


def test_the_scan_sees_each_way_to_decode_json():
    source = '''
from json import loads
from json.decoder import JSONDecoder

def decodes(text, fh):
    json.loads(text)
    json.load(fh)
    json.JSONDecoder().decode(text)
    json.decoder.JSONDecoder()
    f = json.loads

def encodes(value, fh):
    json.dumps(value)
    json.dump(value, fh)
    json.JSONEncoder().encode(value)
    other.loads(text)
'''
    found = decoder_uses(ast.parse(source), "m")
    assert {scope for scope, _ in found} == {"m", "m.decodes"}
    assert len(found) == 7
