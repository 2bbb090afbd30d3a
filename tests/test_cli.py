import json
import shutil
from collections import Counter

import pytest
from click.testing import CliRunner

import factlens.entities as ent_mod
from factlens import pipeline, prompts
from factlens.annotation import SENTENCE_TAGS, load_annotations
from factlens.cli import main
from factlens.corpus import load_store, write_corpus_file
from factlens.polarity import entity_series, org_polarity, polarity_rows
from factlens.report import export_table
from factlens.providers import write_fixture
from factlens.synthetic import make_articles, write_alias_csv
from tests.conftest import StubResponse


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def workspace(tmp_path):
    articles = make_articles(60, seed=3)
    write_corpus_file(articles, tmp_path / "input.jsonl")
    write_alias_csv(tmp_path / "aliases.csv")
    (tmp_path / "run.cfg").write_text(
        f"input_file = {tmp_path / 'input.jsonl'}\n"
        f"aliases_file = {tmp_path / 'aliases.csv'}\n"
        f"cache_dir = {tmp_path / 'cache'}\n"
        "min_support = 1\n"
    )
    return tmp_path


def invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def test_ingest_annotate_embed_flow(runner, workspace):
    store = workspace / "store"
    result = invoke(
        runner,
        ["ingest", "--input", str(workspace / "input.jsonl"),
         "--from", "2018-01-01", "--to", "2023-12-31", "--out", str(store)],
    )
    assert "ingested 60 articles" in result.output
    assert (store / "corpus.jsonl").exists()
    assert (store / "rejections.log").exists()

    result = invoke(runner, ["annotate", "--store", str(store),
                             "--cache", str(workspace / "cache")])
    assert "annotated 60 articles" in result.output
    assert (store / "annotations.jsonl").exists()

    result = invoke(runner, ["embed", "--store", str(store)])
    assert (store / "embeddings.jsonl").exists()

    out_file = workspace / "sim.json"
    result = invoke(
        runner,
        ["similarity", "--store", str(store), "--tag", "claim",
         "--orgs", "PolitiFact,Snopes", "--window", "15", "--tau", "0.75",
         "--seed", "1", "--resamples", "200",
         "--out", str(out_file), "--per-article-csv", str(workspace / "sim.csv")],
    )
    payload = json.loads(out_file.read_text())
    assert payload[0]["org_x"] == "PolitiFact"
    assert (workspace / "sim.csv").read_text().startswith("article_id,")

    ent_file = workspace / "ent.json"
    invoke(
        runner,
        ["entities", "--store", str(store), "--aliases", str(workspace / "aliases.csv"),
         "--top-k", "100", "--window", "15", "--orgs", "PolitiFact,Snopes",
         "--out", str(ent_file)],
    )
    assert json.loads(ent_file.read_text())[0]["top_k"] == 100

    pol_file = workspace / "pol.csv"
    result = invoke(
        runner,
        ["polarity", "--store", str(store), "--aliases", str(workspace / "aliases.csv"),
         "--top-k", "5", "--min-support", "1", "--out", str(pol_file)],
    )
    assert "micro=" in result.output
    header = pol_file.read_text().splitlines()[0]
    assert header == "org,entity,period,n_pos,n_neg,n_total,ps,delta_ps"

    svg_file = workspace / "chart.svg"
    invoke(
        runner,
        ["report", "--inputs", str(pol_file), "--format", "svg", "--out", str(svg_file)],
    )
    assert svg_file.read_text().startswith("<svg")


def test_stage_subcommands_reproduce_run_all(runner, workspace):
    """`ingest` writes the store run_all wrote, rejected line included. On
    run_all's store, `similarity` for each tag, `entities` for a pair and
    `polarity` write the files run_all wrote for them, byte for byte, less
    the keys only `entities` adds (each org's top entities)."""
    with (workspace / "input.jsonl").open("a", encoding="utf-8") as fh:
        fh.write("not a record\n")
    store, out = workspace / "store", workspace / "out"
    invoke(runner, ["run-all", "--store", str(store), "--config", str(workspace / "run.cfg"),
                    "--out", str(out)])
    staged = workspace / "staged"
    invoke(runner, ["ingest", "--input", str(workspace / "input.jsonl"), "--out", str(staged)])
    assert (store / "rejections.log").read_text(encoding="utf-8").count("\n") == 1
    for name in ("corpus.jsonl", "rejections.log", "meta.json"):
        assert (staged / name).read_bytes() == (store / name).read_bytes(), name
    for name in ("polarity.csv", "polarity.json"):
        invoke(runner, ["polarity", "--store", str(store), "--aliases",
                        str(workspace / "aliases.csv"), "--min-support", "1",
                        "--out", str(workspace / name)])
        assert (workspace / name).read_bytes() == (out / name).read_bytes(), name
    orgs = "PolitiFact,Snopes"
    for tag in SENTENCE_TAGS:
        got = workspace / f"similarity-{tag}.json"
        invoke(runner, ["similarity", "--store", str(store), "--tag", tag, "--orgs", orgs,
                        "--out", str(got)])
        assert got.read_bytes() == (out / "similarity" / f"PolitiFact-Snopes-{tag}.json").read_bytes()
    got = workspace / "entities.json"
    invoke(runner, ["entities", "--store", str(store), "--aliases", str(workspace / "aliases.csv"),
                    "--orgs", orgs, "--out", str(got)])
    [payload] = json.loads(got.read_text(encoding="utf-8"))
    assert payload.pop("top_entities_x") and payload.pop("top_entities_y")
    export_table([payload], "json", workspace / "entities-less-tops.json")
    expected = (out / "entities" / "PolitiFact-Snopes.json").read_bytes()
    assert (workspace / "entities-less-tops.json").read_bytes() == expected


def test_an_alias_chain_is_refused_naming_the_file(runner, workspace):
    """With Joe Biden itself an alias of President Biden, a second
    canonicalization would move the names `polarity --by-year` reports."""
    store, aliases = workspace / "store", workspace / "aliases.csv"
    invoke(runner, ["ingest", "--input", str(workspace / "input.jsonl"), "--out", str(store)])
    invoke(runner, ["annotate", "--store", str(store), "--cache", str(workspace / "cache")])
    aliases.write_text(aliases.read_text(encoding="utf-8") + "Joe Biden,President Biden,yes\n",
                       encoding="utf-8")
    result = runner.invoke(main, ["polarity", "--store", str(store), "--aliases", str(aliases),
                                  "--by-year", "--min-support", "1",
                                  "--out", str(workspace / "ps.csv")])
    assert result.exit_code == 1, result.output
    assert result.stderr.splitlines() == [
        f"Error: {aliases}: not a valid alias file (ValueError: canonical name 'Joe Biden' "
        "is an alias of 'President Biden')"
    ]


def test_a_report_input_that_repeats_a_key_is_refused(runner, tmp_path):
    """A JSON row holding "ps" twice is an error naming the file and the key,
    not a table holding the last value."""
    path = tmp_path / "t.json"
    path.write_text('[{"org": "O", "entity": "E", "ps": 0.5, "ps": 0.9, "delta_ps": 0.1}]',
                    encoding="utf-8")
    out = tmp_path / "out.csv"
    result = runner.invoke(main, ["report", "--inputs", str(path), "--format", "csv",
                                  "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert result.stderr.splitlines() == [
        f"Error: {path}: not a table (ValueError: an object repeats the key 'ps')"
    ]
    assert not out.exists()


def test_annotate_with_fixture_mock(runner, tmp_path):
    body = "Somebody claimed something. It spread because of a chain letter."
    (tmp_path / "input.jsonl").write_text(
        json.dumps(
            {
                "id": "a1", "org": "Snopes", "country": "USA",
                "published_at": "2020-05-05", "title": "t", "body": body,
            }
        )
        + "\n"
    )
    store = tmp_path / "store"
    invoke(
        CliRunner(),
        ["ingest", "--input", str(tmp_path / "input.jsonl"), "--out", str(store)],
    )
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    model = "gpt-3.5-turbo"  # must match the configured model name
    write_fixture(fixtures, prompts.CLAIM, body, '["Somebody claimed something."]', model)
    write_fixture(fixtures, prompts.WHAT_WHY, body,
                  '{"what":["Somebody claimed something."],"why":[]}', model)
    write_fixture(fixtures, prompts.ENTITIES, body, '{"Somebody":"neutral"}', model)
    result = invoke(
        runner,
        ["annotate", "--store", str(store), "--cache", str(tmp_path / "cache"),
         "--mock", str(fixtures)],
    )
    assert "annotated 1 articles" in result.output
    ann = json.loads((store / "annotations.jsonl").read_text())
    assert ann["claim"] == ["Somebody claimed something."]
    assert ann["failed_tags"] == []


def test_a_fixtures_dir_that_is_not_a_directory_is_refused(runner, workspace):
    """A mistyped fixture directory is one `Error:` line, not a run in
    which every tag fails."""
    missing = workspace / "no" / "such" / "dir"
    with (workspace / "run.cfg").open("a") as fh:
        fh.write(f"provider_kind = fixtures\nprovider_fixtures_dir = {missing}\n")
    result = runner.invoke(
        main,
        ["run-all", "--store", str(workspace / "store"),
         "--config", str(workspace / "run.cfg"), "--out", str(workspace / "out")],
    )
    assert result.exit_code == 1, result.output
    assert result.stderr == f"Error: provider_fixtures_dir: {str(missing)!r} is not a directory\n"
    assert not (workspace / "out" / "similarity.csv").exists()
    assert not (workspace / "store" / "annotations.jsonl").exists()
    store = workspace / "built"
    invoke(runner, ["ingest", "--input", str(workspace / "input.jsonl"), "--out", str(store)])
    result = runner.invoke(main, ["annotate", "--store", str(store), "--mock", str(missing)])
    assert result.exit_code == 1, result.output
    assert result.stderr == f"Error: provider_fixtures_dir: {str(missing)!r} is not a directory\n"


def test_an_embedder_of_another_width_ends_the_run_naming_embedding_dim(
    runner, workspace, stub_post
):
    """64-d vectors when embedding_dim is 32: the first request ends the run
    with one `Error:` line, after the annotations are saved and before any
    sidecar is written, rather than marking every tag absent."""
    sent = []

    def reply(body):
        sent.append(body["texts"])
        return StubResponse(200, {"vectors": [[0.125] * 64] * len(body["texts"])})

    stub_post(reply)
    with (workspace / "run.cfg").open("a") as fh:
        fh.write("embedding_kind = http\nembedding_endpoint = http://embed.test/v1\n"
                 "embedding_dim = 32\n")
    store = workspace / "store"
    result = runner.invoke(main, ["run-all", "--store", str(store),
                                  "--config", str(workspace / "run.cfg"),
                                  "--out", str(workspace / "out")])
    assert result.exit_code == 1, result.output
    assert result.stderr == (
        "Error: embedding_dim: is 32, but the provider returned vectors of width 64\n"
    )
    assert len(sent) == 1
    assert len(load_annotations(store / pipeline.ANNOTATIONS_FILE)) == 60
    assert not (store / pipeline.EMBEDDINGS_FILE).exists()


@pytest.mark.parametrize("flag, name", [
    ("--store", "afile"), ("--out", "afile"), ("--store", "afile/store"),
], ids=["store-is-a-file", "out-is-a-file", "store-inside-a-file"])
def test_a_run_all_directory_flag_naming_a_file_is_refused_before_anything_is_written(
    runner, workspace, flag, name
):
    (workspace / "afile").write_text("kept\n")
    dirs = {"--store": str(workspace / "store"), "--out": str(workspace / "out")}
    dirs[flag] = str(workspace / name)
    result = runner.invoke(main, ["run-all", "--store", dirs["--store"],
                                  "--config", str(workspace / "run.cfg"),
                                  "--out", dirs["--out"]])
    assert result.exit_code == 1, result.output
    assert result.stderr == f"Error: {flag}: {dirs[flag]!r} is not a directory\n"
    assert not (workspace / "store").exists() and not (workspace / "out").exists()
    assert (workspace / "afile").read_text() == "kept\n"


PATH_REFUSALS = {  # a path setting naming the wrong kind of file, and its error
    "cache-dir-is-a-file": ("cache_dir", "aliases.csv", "is not a directory"),
    "cache-dir-inside-a-file": ("cache_dir", "aliases.csv/cache", "is not a directory"),
    "aliases-file-is-a-directory": ("aliases_file", "adir", "is not a file"),
    "aliases-file-is-missing": ("aliases_file", "missing.csv", "is not a file"),
}


@pytest.mark.parametrize("key, name, fault", PATH_REFUSALS.values(), ids=PATH_REFUSALS)
def test_a_path_setting_of_the_wrong_kind_is_refused_before_ingest(
    runner, workspace, key, name, fault
):
    """run-all refuses it with one `Error:` line naming the key before
    anything is written; the subcommand flag that sets the key gives the
    same line."""
    (workspace / "adir").mkdir()
    path = str(workspace / name)
    config = (workspace / "run.cfg").read_text().splitlines()
    config = [line for line in config if not line.startswith(key)] + [f"{key} = {path}"]
    (workspace / "bad.cfg").write_text("\n".join(config) + "\n")
    error = f"Error: {key}: {path!r} {fault}\n"
    result = runner.invoke(main, ["run-all", "--store", str(workspace / "store"),
                                  "--config", str(workspace / "bad.cfg"),
                                  "--out", str(workspace / "out")])
    assert result.exit_code == 1, result.output
    assert result.stderr == error
    assert not (workspace / "store").exists() and not (workspace / "out").exists()

    store = workspace / "built"
    invoke(runner, ["ingest", "--input", str(workspace / "input.jsonl"), "--out", str(store)])
    if key == "cache_dir":
        commands = [["annotate", "--store", str(store), "--cache", path]]
    else:
        commands = [
            ["entities", "--store", str(store), "--aliases", path, "--orgs", "A,B",
             "--out", str(workspace / "e.json")],
            ["polarity", "--store", str(store), "--aliases", path,
             "--out", str(workspace / "p.csv")],
        ]
    for args in commands:
        result = runner.invoke(main, args)
        assert (result.exit_code, result.stderr) == (1, error), result.output


def test_annotate_with_an_empty_cache_flag_is_refused(runner, workspace):
    store = workspace / "store"
    invoke(runner, ["ingest", "--input", str(workspace / "input.jsonl"), "--out", str(store)])
    result = runner.invoke(main, ["annotate", "--store", str(store), "--cache", ""])
    assert result.exit_code == 1, result.output
    assert result.stderr == "Error: cache_dir: must not be empty\n"


def test_run_all_and_print_config(runner, workspace):
    result = invoke(
        runner,
        ["run-all", "--store", str(workspace / "store"),
         "--config", str(workspace / "run.cfg"),
         "--out", str(workspace / "out"), "--print-config"],
    )
    assert "window_days = 15" in result.output
    assert not (workspace / "out" / "polarity.csv").exists()

    result = invoke(
        runner,
        ["run-all", "--store", str(workspace / "store"),
         "--config", str(workspace / "run.cfg"), "--out", str(workspace / "out")],
    )
    assert "pipeline done" in result.output
    for name in ("polarity.csv", "similarity.csv", "entities.csv",
                 "org_polarity.csv", "charts/polarity.svg", "run_config.txt"):
        assert (workspace / "out" / name).exists(), name


def test_run_all_on_prebuilt_store(runner, workspace):
    """Without input_file, run-all consumes a store built by `ingest`."""
    store = workspace / "store"
    invoke(runner, ["ingest", "--input", str(workspace / "input.jsonl"), "--out", str(store)])
    (workspace / "prebuilt.cfg").write_text(
        f"aliases_file = {workspace / 'aliases.csv'}\n"
        f"cache_dir = {workspace / 'cache'}\n"
        "min_support = 1\n"
    )
    result = invoke(
        runner,
        ["run-all", "--store", str(store), "--config", str(workspace / "prebuilt.cfg"),
         "--out", str(workspace / "out2")],
    )
    assert "pipeline done" in result.output
    assert (workspace / "out2" / "polarity.csv").exists()


def test_run_all_missing_store_is_clean_error(runner, tmp_path):
    (tmp_path / "empty.cfg").write_text("")
    result = runner.invoke(
        main,
        ["run-all", "--store", str(tmp_path / "nostore"),
         "--config", str(tmp_path / "empty.cfg"), "--out", str(tmp_path / "out")],
    )
    assert result.exit_code != 0
    assert "ingest" in result.output  # points at the missing ingest step


def test_similarity_cross_geography_warns(runner, workspace):
    store = workspace / "store"
    invoke(runner, ["ingest", "--input", str(workspace / "input.jsonl"), "--out", str(store)])
    invoke(runner, ["annotate", "--store", str(store), "--cache", str(workspace / "cache")])
    invoke(runner, ["embed", "--store", str(store)])
    result = runner.invoke(
        main,
        ["similarity", "--store", str(store), "--tag", "claim",
         "--orgs", "PolitiFact,Boom", "--resamples", "50",
         "--out", str(workspace / "x.json")],
        catch_exceptions=False,
    )
    assert result.exit_code == 0
    assert "cross-geography" in result.stderr


def test_ingest_bad_date_is_clean_error(runner, tmp_path):
    (tmp_path / "i.jsonl").write_text("{}\n")
    result = runner.invoke(
        main,
        ["ingest", "--input", str(tmp_path / "i.jsonl"), "--from", "nope",
         "--out", str(tmp_path / "s")],
    )
    assert result.exit_code != 0
    assert "--from" in result.output


@pytest.mark.parametrize(
    ("args", "message"),
    [
        (["entities", "--orgs", "PolitiFact,Snopes", "--top-k", "0"],
         "top_k_entities: must be >= 1"),
        (["entities", "--orgs", "PolitiFact,Snopes", "--window", "-3"],
         "window_days: must be >= 0"),
        (["polarity", "--top-k", "0"], "top_k_polarity: must be >= 1"),
        (["polarity", "--min-support", "0"], "min_support: must be >= 1"),
        pytest.param(
            ["polarity", "--precisions", "missing.csv"],
            "missing.csv: not a valid precision file (ValueError: precision_negative: missing)",
            id="precisions-column-missing",
        ),
        pytest.param(
            ["polarity", "--precisions", "range.csv"],
            "range.csv: not a valid precision file "
            "(ValueError: precision_negative: must be in [0, 1])",
            id="precisions-out-of-range",
        ),
        (["similarity", "--orgs", "PolitiFact,Snopes", "--tag", "claim", "--tau", "1.5"],
         "tau: must be in [0, 1]"),
        (["entities", "--orgs", "PolitiFact,Snopes", "--window", "99999999999999999999999"],
         "window_days: must be <= 3652058"),
    ],
)
def test_bad_stage_flags_are_clean_errors(runner, tmp_path, monkeypatch, args, message):
    """Stage flags pass the run config's checks and fail without a traceback."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "missing.csv").write_text("positive,neutral\n1.0,1.0\n")
    (tmp_path / "range.csv").write_text("positive,negative,neutral\n1.0,1.5,1.0\n")
    result = runner.invoke(main, [*args, "--store", str(tmp_path), "--out", "out.json"])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"Error: {message}" in result.output
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", [["similarity", "--tag", "claim"], ["entities"]])
def test_unknown_org_is_clean_error(runner, workspace, command):
    store = workspace / "store"
    invoke(runner, ["ingest", "--input", str(workspace / "input.jsonl"), "--out", str(store)])
    result = runner.invoke(
        main,
        [*command, "--store", str(store), "--orgs", "PolitiFact,Snopse",
         "--out", str(workspace / "x.json")],
    )
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit)
    assert "unknown organization 'Snopse'" in result.output
    assert "cross-geography" not in result.output
    assert not (workspace / "x.json").exists()


@pytest.mark.parametrize("orgs", ["PolitiFact", "PolitiFact,Snopes,Boom"])
def test_orgs_without_two_names_is_clean_error(runner, workspace, orgs):
    store = workspace / "store"
    invoke(runner, ["ingest", "--input", str(workspace / "input.jsonl"), "--out", str(store)])
    result = runner.invoke(main, ["entities", "--store", str(store), "--orgs", orgs,
                                  "--out", str(workspace / "x.json")])
    assert result.exit_code == 2
    assert "--orgs expects exactly two names" in result.output
    assert not (workspace / "x.json").exists()


def test_polarity_reports_each_skipped_org(runner, workspace):
    store = workspace / "store"
    invoke(runner, ["ingest", "--input", str(workspace / "input.jsonl"), "--out", str(store)])
    invoke(runner, ["annotate", "--store", str(store), "--cache", str(workspace / "cache")])
    result = invoke(
        runner,
        ["polarity", "--store", str(store), "--aliases", str(workspace / "aliases.csv"),
         "--min-support", "1000", "--out", str(workspace / "pol.csv")],
    )
    for org in ("AltNews", "Boom", "CheckYourFact", "OpIndia", "PolitiFact", "Snopes"):
        assert (
            f"warning: no entities with support >= 1000 for organization {org!r}"
            in result.stderr
        )
    assert "0 polarity rows" in result.stdout


def test_polarity_precisions_file_sets_the_error_bars(runner, workspace):
    """--precisions sets the two precision_* settings (its neutral column is
    ignored): each row's delta_ps is the worst-case error under the file's
    precisions."""
    store = workspace / "store"
    invoke(runner, ["ingest", "--input", str(workspace / "input.jsonl"), "--out", str(store)])
    invoke(runner, ["annotate", "--store", str(store), "--cache", str(workspace / "cache")])
    (workspace / "prec.csv").write_text("positive,negative,neutral\n0.9,0.5,0.8\n")
    invoke(
        runner,
        ["polarity", "--store", str(store), "--aliases", str(workspace / "aliases.csv"),
         "--precisions", str(workspace / "prec.csv"), "--min-support", "1",
         "--out", str(workspace / "pol.json")],
    )
    rows = json.loads((workspace / "pol.json").read_text())
    assert any(row["n_neg"] for row in rows)
    for row in rows:
        expected = (0.1 * row["n_pos"] + 0.5 * row["n_neg"]) / row["n_total"]
        assert row["delta_ps"] == pytest.approx(expected, abs=5e-5)  # written to 4 places


def test_polarity_by_year_derives_labels_once_per_article(runner, workspace, monkeypatch):
    store = workspace / "store"
    invoke(runner, ["ingest", "--input", str(workspace / "input.jsonl"), "--out", str(store)])
    invoke(runner, ["annotate", "--store", str(store), "--cache", str(workspace / "cache")])
    calls = Counter()
    real = ent_mod.entity_labels

    def counting(ann, *args, **kwargs):
        calls[None if ann is None else ann.article_id] += 1
        return real(ann, *args, **kwargs)

    monkeypatch.setattr(ent_mod, "entity_labels", counting)
    aliases_file = workspace / "aliases.csv"
    result = invoke(
        runner,
        ["polarity", "--store", str(store), "--aliases", str(aliases_file), "--by-year",
         "--top-k", "3", "--min-support", "2", "--out", str(workspace / "pol.csv")],
    )
    monkeypatch.setattr(ent_mod, "entity_labels", real)
    corpus = load_store(store)
    assert sum(calls.values()) == len(corpus) == 60
    assert set(calls.values()) == {1}

    # The rows equal those of the per-entity public functions.
    annotations = load_annotations(store / pipeline.ANNOTATIONS_FILE)
    aliases = ent_mod.load_aliases_csv(aliases_file)
    rows = []
    for org in corpus.orgs():
        try:
            res = org_polarity(corpus, annotations, aliases, org, top_k=3, min_support=2)
        except ValueError:
            continue
        for r in res.entities[:3]:
            series = entity_series(corpus, annotations, aliases, org, r.counts.entity)
            rows.extend(polarity_rows(series))
    assert f"{len(rows)} polarity rows" in result.stdout and rows
    export_table(rows, "csv", workspace / "expected.csv", pipeline.POLARITY_COLUMNS)
    assert (workspace / "pol.csv").read_bytes() == (workspace / "expected.csv").read_bytes()


@pytest.fixture(scope="module")
def built_store(tmp_path_factory):
    """A store after ingest, annotate and embed; tests copy it before damaging it."""
    base = tmp_path_factory.mktemp("built")
    write_corpus_file(make_articles(30, seed=4), base / "input.jsonl")
    runner = CliRunner()
    invoke(runner, ["ingest", "--input", str(base / "input.jsonl"), "--out", str(base / "store")])
    invoke(runner, ["annotate", "--store", str(base / "store"), "--cache", str(base / "cache")])
    invoke(runner, ["embed", "--store", str(base / "store")])
    return base / "store"


@pytest.mark.parametrize(
    ("damaged", "command"),
    [
        ("embeddings.jsonl", ["similarity", "--tag", "claim", "--orgs", "PolitiFact,Snopes"]),
        ("annotations.jsonl", ["embed"]),
        ("annotations.jsonl", ["entities", "--orgs", "PolitiFact,Snopes"]),
        ("annotations.jsonl", ["polarity"]),
        ("corpus.jsonl", ["annotate"]),
        ("corpus.jsonl", ["similarity", "--tag", "claim", "--orgs", "PolitiFact,Snopes"]),
        ("corpus.jsonl", ["entities", "--orgs", "PolitiFact,Snopes"]),
        ("corpus.jsonl", ["polarity"]),
        ("meta.json", ["annotate"]),
        ("meta.json", ["entities", "--orgs", "PolitiFact,Snopes"]),
        ("meta.json", ["polarity"]),
    ],
)
def test_truncated_store_file_is_clean_error(runner, built_store, tmp_path, damaged, command):
    """A store file cut mid-line (say, by a killed run) names itself in an
    `Error:` line instead of a traceback."""
    store = tmp_path / "store"
    shutil.copytree(built_store, store)
    data = (store / damaged).read_bytes()
    (store / damaged).write_bytes(data[: len(data) // 2])
    args = [*command, "--store", str(store)]
    if command[0] in ("similarity", "entities", "polarity"):
        args += ["--out", str(tmp_path / "out.json")]
    if command[0] == "annotate":
        args += ["--cache", str(tmp_path / "cache")]
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 1, result.output
    assert result.stderr.startswith("Error:")
    assert str(store / damaged) in result.stderr
    assert "Traceback" not in result.output
    assert not (tmp_path / "out.json").exists()


def write(path, data):
    """data (text as UTF-8, or bytes) written to path; returns the path as str."""
    path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    return str(path)


@pytest.mark.parametrize("fmt", ["svg", "csv", "json"])
def test_report_creates_the_output_directory(runner, tmp_path, fmt):
    rows = write(tmp_path / "pol.csv", "org,entity,ps,delta_ps\nO,E,0.5,0.1\n")
    out = tmp_path / "new" / "dir" / f"c.{fmt}"
    invoke(runner, ["report", "--inputs", rows, "--format", fmt, "--out", str(out)])
    assert out.read_text(encoding="utf-8")


def nan_vector_store(tmp):
    """The store with a NaN in the first stored vector of its sidecar."""
    path = tmp / "store" / pipeline.EMBEDDINGS_FILE
    lines = path.read_text(encoding="utf-8").splitlines()
    i = next(i for i, line in enumerate(lines) if json.loads(line).get("vector"))
    row = json.loads(lines[i])
    row["vector"][0] = float("nan")
    lines[i] = json.dumps(row)
    write(path, "".join(f"{line}\n" for line in lines))
    return str(tmp / "store")


NOT_UTF8 = b"surface,canonical,political\nJoe Biden,Joe Biden,yes\n\xff\xfe,Joe Biden,yes\n"


def not_utf8_annotation_store(tmp):
    """The store with a 0xff byte inside the second line of its annotations."""
    path = tmp / "store" / pipeline.ANNOTATIONS_FILE
    lines = path.read_bytes().split(b"\n")
    lines[1] = lines[1][:20] + b"\xff" + lines[1][20:]
    path.write_bytes(b"\n".join(lines))
    return str(tmp / "store")


def surrogate_annotation_store(tmp):
    """The store with the escape of an unpaired surrogate in a claim on the
    second line of its annotations."""
    path = tmp / "store" / pipeline.ANNOTATIONS_FILE
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = json.dumps({**json.loads(lines[1]), "claim": ["bad \ud800 x"]}) + "\n"
    write(path, "".join(lines))
    return str(tmp / "store")


# Each case: the arguments, before --out, of a command whose input is bad.
BAD_INPUTS = {
    "report-no-ps-column": lambda tmp: [
        "report", "--format", "svg",
        "--inputs", write(tmp / "pol.csv", "org,entity,delta_ps\nSnopes,Joe Biden,0.01\n"),
    ],
    "report-json-not-json": lambda tmp: [
        "report", "--format", "svg", "--inputs", write(tmp / "pol.json", '[{"org": '),
    ],
    "report-json-row-not-object": lambda tmp: [
        "report", "--format", "csv", "--inputs", write(tmp / "pol.json", "[1, 2]"),
    ],
    "entities-aliases-not-utf8": lambda tmp: [
        "entities", "--store", str(tmp / "store"), "--orgs", "PolitiFact,Snopes",
        "--aliases", write(tmp / "aliases.csv", NOT_UTF8),
    ],
    "polarity-aliases-not-utf8": lambda tmp: [
        "polarity", "--store", str(tmp / "store"),
        "--aliases", write(tmp / "aliases.csv", NOT_UTF8),
    ],
    "run-all-config-not-utf8": lambda tmp: [
        "run-all", "--store", str(tmp / "store"),
        "--config", write(tmp / "run.cfg", b"min_support = 1\ncache_dir = \xff\n"),
    ],
    "similarity-nan-vector": lambda tmp: [
        "similarity", "--store", nan_vector_store(tmp), "--tag", "claim",
        "--orgs", "PolitiFact,Snopes",
    ],
    "report-nan-delta": lambda tmp: [
        "report", "--format", "svg",
        "--inputs", write(tmp / "pol.csv", "org,entity,ps,delta_ps\nO,E,0.5,nan\n"),
    ],
    "report-json-deep-nesting": lambda tmp: [
        "report", "--format", "csv",
        "--inputs", write(tmp / "deep.json", "[" * 200_000 + "]" * 200_000),
    ],
    "report-json-nested-too-deep-to-export": lambda tmp: [
        "report", "--format", "json",
        "--inputs", write(tmp / "deep.json", '[{"a": ' + "[" * 800 + "]" * 800 + "}]"),
    ],
    "polarity-annotations-not-utf8": lambda tmp: [
        "polarity", "--store", not_utf8_annotation_store(tmp),
    ],
    "polarity-annotations-unpaired-surrogate": lambda tmp: [
        "polarity", "--store", surrogate_annotation_store(tmp),
    ],
    "report-json-unpaired-surrogate": lambda tmp: [
        "report", "--format", "json", "--inputs",
        write(tmp / "pol.json", '[{"org": "bad \\ud800 x", "entity": "E", "ps": 0.5}]'),
    ],
}


@pytest.mark.parametrize("make_args", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_bad_input_is_clean_error(runner, built_store, tmp_path, make_args):
    """Malformed or undecodable input to any command ends in one `Error:`
    line that names the input, and exit status 1, and writes no output."""
    shutil.copytree(built_store, tmp_path / "store")
    args = [*make_args(tmp_path), "--out", str(tmp_path / "out")]
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 1, result.output
    assert result.stderr.startswith("Error:")
    assert str(tmp_path) in result.stderr.splitlines()[0]
    assert "Traceback" not in result.output
    assert not (tmp_path / "out").exists()


# Over the csv module's default field size limit of 131,072 characters.
BIG_FIELD = "x" * 200_000

# Each case: the arguments, before --out, of a command given tmp/bad.csv.
BAD_CSV_FILES = {
    "entities-aliases-not-utf8": lambda tmp: [
        "entities", "--store", str(tmp / "store"), "--orgs", "PolitiFact,Snopes",
        "--aliases", write(tmp / "bad.csv", NOT_UTF8),
    ],
    "polarity-precisions-not-utf8": lambda tmp: [
        "polarity", "--store", str(tmp / "store"),
        "--precisions", write(tmp / "bad.csv", b"positive,negative,neutral\n1.0,\xff,1.0\n"),
    ],
    "entities-aliases-field-too-large": lambda tmp: [
        "entities", "--store", str(tmp / "store"), "--orgs", "PolitiFact,Snopes",
        "--aliases", write(tmp / "bad.csv", f"surface,canonical,political\nA,{BIG_FIELD},yes\n"),
    ],
    "polarity-aliases-field-too-large": lambda tmp: [
        "polarity", "--store", str(tmp / "store"),
        "--aliases", write(tmp / "bad.csv", f"surface,canonical,political\nA,{BIG_FIELD},yes\n"),
    ],
    "entities-aliases-missing-political": lambda tmp: [
        "entities", "--store", str(tmp / "store"), "--orgs", "PolitiFact,Snopes",
        "--aliases", write(tmp / "bad.csv", "surface,canonical\nJoe Biden,Joe Biden\n"),
    ],
    "polarity-aliases-missing-surface": lambda tmp: [
        "polarity", "--store", str(tmp / "store"),
        "--aliases", write(tmp / "bad.csv", "canonical,political\nJoe Biden,yes\n"),
    ],
    "polarity-precisions-field-too-large": lambda tmp: [
        "polarity", "--store", str(tmp / "store"),
        "--precisions", write(tmp / "bad.csv", f"positive,negative,neutral\n1.0,{BIG_FIELD},1.0\n"),
    ],
    "polarity-precisions-short-row": lambda tmp: [
        "polarity", "--store", str(tmp / "store"),
        "--precisions", write(tmp / "bad.csv", "positive,negative,neutral\n0.9,1\n"),
    ],
    "polarity-precisions-not-a-number": lambda tmp: [
        "polarity", "--store", str(tmp / "store"),
        "--precisions", write(tmp / "bad.csv", "positive,negative,neutral\nx,1,1\n"),
    ],
    "report-field-too-large": lambda tmp: [
        "report", "--format", "csv",
        "--inputs", write(tmp / "bad.csv", f"org,entity,ps,delta_ps\nO,{BIG_FIELD},0.5,0.1\n"),
    ],
    "report-short-row": lambda tmp: [
        "report", "--format", "csv",
        "--inputs", write(tmp / "bad.csv", "org,entity,ps,delta_ps\nO,E,0.5,0.1\nO,F,0.5\n"),
    ],
    "report-long-row": lambda tmp: [
        "report", "--format", "csv",
        "--inputs", write(tmp / "bad.csv", "org,entity,ps,delta_ps\nO,E,0.5,0.1,extra\n"),
    ],
}


@pytest.mark.parametrize("make_args", BAD_CSV_FILES.values(), ids=BAD_CSV_FILES)
def test_bad_csv_file_is_named_in_error(runner, built_store, tmp_path, make_args):
    """An undecodable or malformed CSV input ends in one `Error:` line that
    names the file, and exit status 1."""
    shutil.copytree(built_store, tmp_path / "store")
    args = [*make_args(tmp_path), "--out", str(tmp_path / "out")]
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 1, result.output
    assert result.stderr.startswith(f"Error: {tmp_path / 'bad.csv'}: ")
    assert "Traceback" not in result.output
    assert not (tmp_path / "out").exists()


MISTYPED_ROWS = {
    "article-id-int": {"article_id": 3},
    "claim-of-ints": {"claim": [1]},
    "claim-string": {"claim": "abc"},
    "failed-tags-string": {"failed_tags": "entities"},
    "entity-label-int": {"entities": {"Joe Biden": 3}},
    "entity-label-unknown": {"entities": {"Joe Biden": "happy"}},
    "entity-name-empty": {"entities": {"": "negative"}},
}


@pytest.mark.parametrize("command", [["embed"], ["polarity"]], ids=["embed", "polarity"])
@pytest.mark.parametrize("fields", MISTYPED_ROWS.values(), ids=MISTYPED_ROWS)
def test_mistyped_annotation_row_is_clean_error(runner, built_store, tmp_path, fields, command):
    """A row whose fields have the wrong types is named in an `Error:` line,
    not loaded as something else or left to fail later with a traceback."""
    store = tmp_path / "store"
    shutil.copytree(built_store, store)
    path = store / "annotations.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = json.dumps({**json.loads(lines[1]), **fields}) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    args = [*command, "--store", str(store)]
    if command[0] == "polarity":
        args += ["--out", str(tmp_path / "out.json")]
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 1, result.output
    assert result.stderr.startswith(f"Error: {path}:2: not a valid row (TypeError: ")
    assert "Traceback" not in result.output
    assert not (tmp_path / "out.json").exists()


def test_ingest_rejects_a_record_with_an_unpaired_surrogate(runner, tmp_path):
    articles = make_articles(3, seed=1)
    write_corpus_file(articles, tmp_path / "input.jsonl")
    bad = {**json.loads((tmp_path / "input.jsonl").read_text().splitlines()[0]),
           "id": "bad-title", "title": "T\ud800"}
    with (tmp_path / "input.jsonl").open("a") as fh:
        fh.write(json.dumps(bad) + "\n")
    result = invoke(runner, ["ingest", "--input", str(tmp_path / "input.jsonl"),
                             "--out", str(tmp_path / "store")])
    assert "ingested 3 articles" in result.output and "rejected 1 records" in result.output
    logged = json.loads((tmp_path / "store" / "rejections.log").read_text())
    assert logged == {"line": 4, "id": "bad-title",
                      "reason": "field 'title' holds an unpaired surrogate"}


def test_annotate_mock_with_one_unparseable_fixture_fails_only_its_tag(runner, tmp_path):
    """One fixture whose claim would hold an unpaired surrogate fails that
    claim; every article keeps its row in the rewritten annotations."""
    write_corpus_file(make_articles(12, seed=4), tmp_path / "input.jsonl")
    store = tmp_path / "store"
    invoke(runner, ["ingest", "--input", str(tmp_path / "input.jsonl"), "--out", str(store)])
    invoke(runner, ["annotate", "--store", str(store), "--cache", str(tmp_path / "cache")])
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    for entry in (tmp_path / "cache").iterdir():
        response = json.loads(entry.read_text(encoding="utf-8"))["response"]
        (fixtures / f"{entry.stem}.txt").write_text(response, encoding="utf-8")
    article = load_store(store).articles[5]
    model = "gpt-3.5-turbo"  # the configured model name, which keys the fixtures
    write_fixture(fixtures, prompts.CLAIM, article.body, '["bad \\ud800 x"]', model)
    invoke(runner, ["annotate", "--store", str(store), "--cache", str(tmp_path / "empty"),
                    "--mock", str(fixtures)])
    annotations = load_annotations(store / pipeline.ANNOTATIONS_FILE)
    assert len(annotations) == 12
    assert {a.article_id for a in annotations.values() if a.failed_tags} == {article.id}
    assert annotations[article.id].failed_tags == ("claim",)
    assert "claim:unparseable" in annotations[article.id].flags


def test_report_title_that_cannot_be_written_leaves_the_old_chart(runner, tmp_path):
    rows = write(tmp_path / "pol.csv", "org,entity,ps,delta_ps\nO,E,0.5,0.1\n")
    out = tmp_path / "chart.svg"
    invoke(runner, ["report", "--inputs", rows, "--format", "svg", "--out", str(out)])
    before = out.read_bytes()
    # A non-UTF-8 byte in argv reaches the program as a lone surrogate.
    result = runner.invoke(main, ["report", "--inputs", rows, "--format", "svg",
                                  "--out", str(out), "--title", "T\udcff"])
    assert result.exit_code == 1, result.output
    assert result.stderr.startswith(f"Error: {out}: cannot write (UnicodeEncodeError: ")
    assert out.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chart.svg", "pol.csv"]


def test_report_csv_round_trip_keeps_line_ends_inside_cells(runner, tmp_path):
    """export -> parse -> export is byte-identical when a cell holds a bare
    "\r", a "\r\n" or a "\n"."""
    rows = [
        {"org": "Poli\rFact", "entity": "a\r\nb", "ps": 0.5, "delta_ps": 0.1},
        {"org": "x\ny", "entity": 'q"uo,te', "ps": -0.25, "delta_ps": 0.0},
    ]
    first = export_table(rows, "csv", tmp_path / "first.csv")
    invoke(runner, ["report", "--inputs", str(first), "--format", "csv",
                    "--out", str(tmp_path / "second.csv")])
    assert (tmp_path / "second.csv").read_bytes() == first.read_bytes()


@pytest.mark.parametrize("inputs, bad, column", [
    ({"a.csv": "org,entity,ps,delta_ps\nO,E,0.5,0.1\n", "b.csv": "x,y\n1,2\n"}, "b.csv", "x"),
    ({"a.csv": "org,entity,ps,delta_ps\nO,E,0.5,0.1\n", "b.csv": "org,entity\nO,E\n"},
     "b.csv", "ps"),
    ({"t.json": '[{"a": 1}, {"b": 2}]'}, "t.json", "b"),
    ({"t.json": '[{"a": 1, "b": 2}, {"a": 3}]'}, "t.json", "b"),
])
def test_report_csv_refuses_a_row_with_other_columns(runner, tmp_path, inputs, bad, column):
    """A csv table has the first row's columns; a row with others would be
    written with blank cells."""
    args = ["report", "--format", "csv", "--out", str(tmp_path / "out.csv")]
    for name, text in inputs.items():
        args += ["--inputs", write(tmp_path / name, text)]
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 1, result.output
    assert result.stderr == (
        f"Error: {tmp_path / bad}: a row's columns are not the first row's "
        f"(ValueError: first differing column {column!r})\n"
    )
    assert not (tmp_path / "out.csv").exists()


def test_report_csv_takes_the_first_rows_columns_in_any_order(runner, tmp_path):
    first = write(tmp_path / "a.csv", "org,entity,ps,delta_ps\nO,E,0.5,0.1\n")
    second = write(tmp_path / "b.json", '[{"delta_ps": 0.2, "ps": 0.4, "entity": "F", "org": "P"}]')
    out = tmp_path / "out.csv"
    invoke(runner, ["report", "--inputs", first, "--inputs", second, "--format", "csv",
                    "--out", str(out)])
    assert out.read_text(encoding="utf-8") == (
        "org,entity,ps,delta_ps\nO,E,0.5,0.1\nP,F,0.4000,0.2000\n"
    )


def test_report_json_keeps_rows_with_other_columns(runner, tmp_path):
    rows = write(tmp_path / "t.json", '[{"a": 1}, {"b": 2}]')
    out = tmp_path / "out.json"
    invoke(runner, ["report", "--inputs", rows, "--format", "json", "--out", str(out)])
    assert json.loads(out.read_text(encoding="utf-8")) == [{"a": 1}, {"b": 2}]


@pytest.mark.parametrize("flag", ["--from", "--to"])
@pytest.mark.parametrize("value", ["2020-6-1", "２０２０-06-01", "20200601"])
def test_ingest_date_flags_are_read_as_run_cfg_reads_dates(runner, tmp_path, flag, value):
    """run.cfg refuses these dates, so the flags that set the same keys do too."""
    (tmp_path / "i.jsonl").write_text("{}\n")
    result = runner.invoke(main, ["ingest", "--input", str(tmp_path / "i.jsonl"), flag, value,
                                  "--out", str(tmp_path / "s")])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{flag}': not a YYYY-MM-DD date: {value!r}" in result.output
    assert not (tmp_path / "s").exists()


def test_ingest_date_flags_set_the_range(runner, tmp_path):
    write_corpus_file(make_articles(40, seed=3), tmp_path / "i.jsonl")
    invoke(runner, ["ingest", "--input", str(tmp_path / "i.jsonl"), "--from", "2019-01-01",
                    "--to", "2020-12-31", "--out", str(tmp_path / "s")])
    dates = [a.published_at.isoformat() for a in load_store(tmp_path / "s")]
    assert dates and "2019-01-01" <= min(dates) and max(dates) <= "2020-12-31"
