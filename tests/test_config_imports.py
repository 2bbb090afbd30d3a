"""``config.py`` imports no other ``factlens`` module.

Every other module reads its settings from ``factlens.config``, so config
sits below them all: an import from config back into the package would
make the statement of the settings depend on the code they configure. An
AST scan of ``src/factlens/config.py``: a relative import, or an absolute
one of ``factlens`` or a submodule, is a package import.
"""

import ast
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "src" / "factlens" / "config.py"


def package_imports(tree: ast.AST) -> list[str]:
    """The module named by every import in tree that reaches the package,
    relative ones led by their dots."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if node.level or module.split(".")[0] == "factlens":
                found.append(module)
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "factlens"]
    return found


def test_config_imports_no_package_module():
    assert package_imports(ast.parse(CONFIG.read_text(encoding="utf-8"))) == []


def test_the_scan_sees_each_way_to_import_the_package():
    source = """
from __future__ import annotations
import os
from pathlib import Path
import factlensish
from .providers import ProviderConfig
from . import providers
from factlens.providers import ProviderConfig
import factlens.providers
import factlens as fl

def late():
    from ..factlens import config
"""
    assert package_imports(ast.parse(source)) == [
        ".providers", ".", "factlens.providers", "factlens.providers", "factlens",
        "..factlens",
    ]
