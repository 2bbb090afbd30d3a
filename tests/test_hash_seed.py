"""Determinism across interpreters: one seed gives byte-identical artifacts
whatever the string hash seed, so no output depends on set or dict order
that hashing decides."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Writes the inputs, then runs every stage, in the working directory.
SCRIPT = """
from pathlib import Path
from factlens import config, corpus, pipeline, synthetic
corpus.write_corpus_file(synthetic.make_articles(600, seed=3), "corpus.jsonl")
synthetic.write_alias_csv("aliases.csv")
Path("run.cfg").write_text(
    "input_file = corpus.jsonl\\naliases_file = aliases.csv\\ncache_dir = cache\\n"
)
pipeline.run_all(config.load_config("run.cfg", env={}), "store", "out")
"""


def run_all_files(work: Path, hash_seed: str) -> dict[str, bytes]:
    """Every file a cold run leaves under work, but out/run_config.txt."""
    work.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=work, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return {
        path.relative_to(work).as_posix(): path.read_bytes()
        for path in sorted(work.rglob("*"))
        if path.is_file() and path.relative_to(work).as_posix() != "out/run_config.txt"
    }


def test_run_all_is_byte_identical_across_hash_seeds(tmp_path):
    first = run_all_files(tmp_path / "seed0", "0")
    second = run_all_files(tmp_path / "seed1", "1")
    assert {"store/annotations.jsonl", "store/embeddings.jsonl", "out/polarity.csv"} <= set(first)
    assert any(name.startswith("cache/") for name in first)
    assert first.keys() == second.keys()
    assert [name for name in first if first[name] != second[name]] == []
