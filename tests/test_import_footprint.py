"""Importing factlens loads no third-party package but numpy, and the CLI
adds only click.

Each check runs in a fresh interpreter. It imports numpy first and takes a
snapshot of ``sys.modules``, so that whatever the interpreter loads at
startup (a site ``.pth`` file may import packages) is not counted. Then it
imports the named modules; every new top-level module must be in
``sys.stdlib_module_names`` or be one of the allowed packages.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys
import numpy
before = set(sys.modules)
for name in sys.argv[1:]:
    __import__(name)
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def third_party(*modules: str) -> set[str]:
    """The top-level modules, outside the standard library, factlens and
    numpy, that importing modules loads in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, *modules], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    loaded = set(json.loads(result.stdout))
    assert "factlens" in loaded
    return loaded - set(sys.stdlib_module_names) - {"factlens", "numpy"}


@pytest.mark.parametrize("modules, allowed", [
    (("factlens", "factlens.pipeline"), set()),
    (("factlens.cli",), {"click"}),
])
def test_imports_load_no_other_third_party_package(modules, allowed):
    assert third_party(*modules) == allowed
