"""Importing factlens loads no third-party package but numpy, and the CLI
adds only click; a run loads no numpy.ma.

Each check runs in a fresh interpreter. It imports numpy first and takes a
snapshot of ``sys.modules``, so that whatever the interpreter loads at
startup (a site ``.pth`` file may import packages) is not counted. Then it
imports the named modules; every new top-level module must be in
``sys.stdlib_module_names`` or be one of the allowed packages.
"""

import csv
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


RUN_ALL_SCRIPT = """
import json, sys
from pathlib import Path
from factlens import pipeline
from factlens.config import RunConfig
from factlens.corpus import write_corpus_file
from factlens.synthetic import make_articles, write_alias_csv
d = Path(sys.argv[1])
write_corpus_file(make_articles(120, seed=2), d / "input.jsonl")
cfg = RunConfig(
    input_file=str(d / "input.jsonl"), aliases_file=str(write_alias_csv(d / "aliases.csv")),
    cache_dir=str(d / "cache"),
)
pipeline.run_all(cfg, d / "store", d / "out")
print(json.dumps("numpy.ma" in sys.modules))
"""


def test_run_all_does_not_import_numpy_ma(tmp_path):
    """The medians and the bootstrap interval are computed without numpy.ma,
    which np.median and np.percentile import on first use."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", RUN_ALL_SCRIPT, str(tmp_path)], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    with open(tmp_path / "out" / "similarity.csv", newline="") as fh:
        assert any(row["ci_low"] for row in csv.DictReader(fh))  # the bootstrap ran
    assert json.loads(result.stdout) is False
