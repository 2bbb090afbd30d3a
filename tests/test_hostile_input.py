"""Mutated copies of every input file a command reads.

Each mutated file is given to a command that reads it. The command exits
with status 0, or with status 1 and exactly one `Error:` line that names
the file (for a store file, some file of that store; for run.cfg, the
file or the key whose value is wrong); never with a traceback. A cell
dropped from or added to a row of the alias or precision CSV always
exits with status 1.
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from factlens.cli import main
from factlens.config import DEFAULTS, RunConfig, serialize_config
from factlens.corpus import write_corpus_file
from factlens.synthetic import make_articles, write_alias_csv

PAIR = "PolitiFact,Snopes"


def invoke(args):
    result = CliRunner().invoke(main, [str(a) for a in args], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A directory holding a valid copy of every input: a store after
    ingest, annotate and embed, its response cache, fixtures replaying
    that cache, the alias and precision CSVs, and a report CSV and JSON."""
    base = tmp_path_factory.mktemp("pristine")
    write_corpus_file(make_articles(30, seed=4), base / "input.jsonl")
    write_alias_csv(base / "aliases.csv")
    (base / "precisions.csv").write_text("positive,negative,neutral\n1.0,0.706,1.0\n")
    (base / "run.cfg").write_text(serialize_config(RunConfig()))
    store = base / "store"
    invoke(["ingest", "--input", base / "input.jsonl", "--out", store])
    invoke(["annotate", "--store", store, "--cache", base / "cache"])
    invoke(["embed", "--store", store])
    for name in ("report.csv", "report.json"):
        invoke(["polarity", "--store", store, "--aliases", base / "aliases.csv",
                "--min-support", "1", "--out", base / name])
    (base / "fixtures").mkdir()
    for entry in sorted((base / "cache").iterdir()):
        response = json.loads(entry.read_text(encoding="utf-8"))["response"]
        (base / "fixtures" / f"{entry.stem}.txt").write_text(response, encoding="utf-8")
    return base


# Each target: the file mutated (relative to the copy; for a directory, its
# first file), its format, and the arguments of a command that reads it,
# given the copy's directory.
TARGETS = {
    "meta.json": ("store/meta.json", "json", lambda w: [
        "polarity", "--store", w / "store", "--min-support", "1", "--out", w / "out.csv"]),
    "corpus.jsonl": ("store/corpus.jsonl", "jsonl", lambda w: [
        "polarity", "--store", w / "store", "--min-support", "1", "--out", w / "out.csv"]),
    "annotations.jsonl": ("store/annotations.jsonl", "jsonl", lambda w: [
        "polarity", "--store", w / "store", "--min-support", "1", "--out", w / "out.csv"]),
    "embeddings.jsonl": ("store/embeddings.jsonl", "jsonl", lambda w: [
        "similarity", "--store", w / "store", "--tag", "claim", "--orgs", PAIR,
        "--resamples", "50", "--out", w / "out.json"]),
    "aliases.csv": ("aliases.csv", "csv", lambda w: [
        "entities", "--store", w / "store", "--aliases", w / "aliases.csv", "--orgs", PAIR,
        "--out", w / "out.json"]),
    "precisions.csv": ("precisions.csv", "csv", lambda w: [
        "polarity", "--store", w / "store", "--precisions", w / "precisions.csv",
        "--min-support", "1", "--out", w / "out.csv"]),
    "report.csv": ("report.csv", "csv", lambda w: [
        "report", "--inputs", w / "report.csv", "--format", "svg", "--out", w / "out.svg"]),
    "report.json": ("report.json", "json", lambda w: [
        "report", "--inputs", w / "report.json", "--format", "json", "--out", w / "out.json"]),
    "cache-entry": ("cache", "json", lambda w: [
        "annotate", "--store", w / "store", "--cache", w / "cache"]),
    "fixture": ("fixtures", "json", lambda w: [
        "annotate", "--store", w / "store", "--cache", w / "empty-cache",
        "--mock", w / "fixtures"]),
    "run.cfg": ("run.cfg", "csv", lambda w: [
        "embed", "--store", w / "store", "--provider-config", w / "run.cfg"]),
}

JSON_VALUES = st.sampled_from(
    [None, True, 0, -1, 2.5, 10**30, "", "x", [], {}, [0.5], {"k": "v"}]
)
DEEP = "\x00deep\x00"
SURROGATE = "\x00surrogate\x00"


def _paths(value, path=()):
    """The path of every value inside a decoded JSON document."""
    yield path
    if isinstance(value, (dict, list)):
        for key, sub in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _paths(sub, (*path, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replaced(doc, path, new):
    if not path:
        return new
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return doc


@st.composite
def json_swap(draw, text: str) -> str:
    """text with one value swapped for another type or for deep nesting."""
    doc = json.loads(text)
    path = draw(st.sampled_from(list(_paths(doc))))
    new = draw(st.one_of(JSON_VALUES, st.just(DEEP)))
    out = json.dumps(_replaced(doc, path, new), ensure_ascii=False)
    depth = draw(st.integers(1, 100_000))
    return out.replace(json.dumps(DEEP), "[" * depth + "]" * depth)


@st.composite
def surrogate_swap(draw, text: str) -> str:
    """text with one string value (the whole value when it has none)
    swapped for the escape of an unpaired surrogate."""
    doc = json.loads(text)
    paths = [path for path in _paths(doc) if isinstance(_at(doc, path), str)] or [()]
    out = json.dumps(_replaced(doc, draw(st.sampled_from(paths)), SURROGATE), ensure_ascii=False)
    return out.replace(json.dumps(SURROGATE), '"bad \\ud800 x"')


KINDS = st.sampled_from(
    ["truncate", "flip", "insert", "nul", "u2028", "long", "nest", "structure", "surrogate"]
)
# Files in which a dropped or added cell (a "structure" mutation) can only
# be refused: their every row has the header's cells, so none is read with
# its cells shifted or lost.
CELL_COUNTED = ("aliases.csv", "precisions.csv")


@st.composite
def mutated(draw, data: bytes, fmt: str, kind: str) -> bytes:
    at = draw(st.integers(0, len(data)))
    if kind == "surrogate" and fmt == "csv":  # no escapes in CSV: the text stays text
        return data[:at] + b"\\ud800" + data[at:]
    swap = surrogate_swap if kind == "surrogate" else json_swap
    if kind == "truncate":
        return data[:at]
    if kind == "flip":
        if not data:
            return data
        at = min(at, len(data) - 1)
        return data[:at] + bytes([data[at] ^ (1 << draw(st.integers(0, 7)))]) + data[at + 1:]
    inserts = {
        "insert": lambda: draw(st.binary(min_size=1, max_size=8)),
        "nul": lambda: b"\x00",
        "u2028": lambda: "\u2028".encode("utf-8"),
        "long": lambda: b"x" * 200_000,
        "nest": lambda: b"[" * draw(st.integers(1, 100_000)),
    }
    if kind in inserts:
        return data[:at] + inserts[kind]() + data[at:]
    if fmt == "json":
        return draw(swap(data.decode("utf-8"))).encode("utf-8")
    lines = data.split(b"\n")
    i = draw(st.integers(0, len(lines) - 2))  # the last item follows the final newline
    if fmt == "jsonl":
        lines[i] = draw(swap(lines[i].decode("utf-8"))).encode("utf-8")
    else:  # csv: drop a cell or add one
        cells = lines[i].split(b",")
        j = draw(st.integers(0, len(cells) - 1))
        if draw(st.booleans()):
            del cells[j]
        else:
            cells.insert(j, draw(st.sampled_from([b"", b"1.5", b"yes", b'"a,b"'])))
        lines[i] = b",".join(cells)
    return b"\n".join(lines)


@pytest.mark.parametrize("target", TARGETS.values(), ids=TARGETS)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_mutated_input_is_read_or_named(pristine, target, data):
    rel, fmt, command = target
    kind = data.draw(KINDS)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "w"
        shutil.copytree(pristine, work)
        path = work / rel
        if path.is_dir():
            path = min(path.iterdir())
        path.write_bytes(data.draw(mutated(path.read_bytes(), fmt, kind)))
        result = CliRunner().invoke(main, [str(a) for a in command(work)],
                                    catch_exceptions=False)
        refused = kind == "structure" and rel in CELL_COUNTED
        assert result.exit_code in ((1,) if refused else (0, 1)), result.output
        assert "Traceback" not in result.output
        if result.exit_code == 1:
            errors = [line for line in result.stderr.splitlines() if line.startswith("Error:")]
            assert len(errors) == 1, result.stderr
            named = work / "store" if rel.startswith("store/") else path
            key = errors[0].removeprefix("Error: ").partition(":")[0]
            assert str(named) in errors[0] or (rel == "run.cfg" and key in DEFAULTS), errors[0]


def one_error(result) -> str:
    """The one `Error:` line of a command that failed cleanly."""
    assert result.exit_code == 1, result.output
    assert "Traceback" not in result.output
    errors = [line for line in result.stderr.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1, result.stderr
    return errors[0]


@pytest.mark.parametrize("name", ["annotations.jsonl", "embeddings.jsonl"])
def test_a_repeated_store_row_names_its_line(pristine, tmp_path, name):
    """A second row for one key in a store sidecar is an error, as a
    repeated id in the corpus is a rejection; never a silent overwrite."""
    work = tmp_path / "w"
    shutil.copytree(pristine, work)
    path = work / "store" / name
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    first_row = next(line for line in lines if '"article_id"' in line)
    path.write_text("".join(lines + [first_row]), encoding="utf-8")
    _, _, command = TARGETS[name]
    error = one_error(CliRunner().invoke(main, [str(a) for a in command(work)]))
    assert error.startswith(
        f"Error: {path}:{len(lines) + 1}: not a valid row (ValueError: duplicate "
    ), error


def test_a_sidecar_from_before_the_vector_table_is_refused(pristine, tmp_path):
    """A sidecar whose rows hold their vectors (the format before vector
    lines) is named at its first such row, with the command that rebuilds it."""
    work = tmp_path / "w"
    shutil.copytree(pristine, work)
    path = work / "store" / "embeddings.jsonl"
    vectors, lines = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        value = json.loads(line)
        if value.get("kind") == "vector":
            vectors.append(value["vector"])
            continue
        if value.get("vector") is not None:
            value["vector"] = vectors[value["vector"]]
        lines.append(json.dumps(value) + "\n")
    path.write_text("".join(lines), encoding="utf-8")
    first = 1 + next(i for i, line in enumerate(lines) if '"vector": [' in line)
    _, _, command = TARGETS["embeddings.jsonl"]
    error = one_error(CliRunner().invoke(main, [str(a) for a in command(work)]))
    assert error.startswith(f"Error: {path}:{first}: not a valid row"), error
    assert error.endswith("an old sidecar; re-run factlens embed)"), error


@pytest.mark.parametrize("name", ["aliases.csv", "precisions.csv"])
def test_a_cell_dropped_or_added_in_a_settings_csv_is_named(pristine, tmp_path, name):
    """A row of the alias or precision CSV that loses or gains a cell is an
    error naming the file; never read with its cells shifted or lost."""
    rel, _, command = TARGETS[name]
    work = tmp_path / "w"
    shutil.copytree(pristine, work)
    path = work / rel
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    for i, line in enumerate(lines):
        cells = line.rstrip("\n").split(",")
        for changed in (cells[1:], ["1.5", *cells]):
            path.write_text("".join([*lines[:i], ",".join(changed) + "\n", *lines[i + 1:]]),
                            encoding="utf-8")
            error = one_error(CliRunner().invoke(main, [str(a) for a in command(work)]))
            assert error.startswith(f"Error: {path}: "), error
