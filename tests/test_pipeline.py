"""Pipeline stages over the per-org entity view, and run_all's output paths."""

import csv
import datetime as dt
import json
import weakref
from collections import Counter
from dataclasses import replace
from xml.etree import ElementTree

import pytest

import factlens.entities as ent_mod
from factlens import pipeline, prompts
from factlens.annotation import annotate_corpus, load_annotations
from factlens.config import RunConfig, override
from factlens.corpus import Corpus, write_corpus_file
from factlens.embedding import embed_annotations
from factlens.entities import build_alias_map, load_aliases_csv, org_mentions, top_k_entities
from factlens.polarity import org_polarity
from factlens.providers import HashedEmbeddingProvider, SyntheticChatProvider
from factlens.synthetic import make_articles, write_alias_csv
from tests.conftest import chat_reply


def synthetic_cfg(tmp_path, articles) -> RunConfig:
    """A run over articles written as the raw input, with the synthetic aliases."""
    write_corpus_file(articles, tmp_path / "input.jsonl")
    return override(
        RunConfig(),
        input_file=str(tmp_path / "input.jsonl"),
        aliases_file=str(write_alias_csv(tmp_path / "aliases.csv")),
        cache_dir=str(tmp_path / "cache"),
    )


def test_run_all_derives_entity_labels_once_per_article(tmp_path, monkeypatch):
    calls = Counter()
    real = ent_mod.entity_labels

    def counting(ann, *args, **kwargs):
        calls[None if ann is None else ann.article_id] += 1
        return real(ann, *args, **kwargs)

    monkeypatch.setattr(ent_mod, "entity_labels", counting)
    cfg = synthetic_cfg(tmp_path, make_articles(120, seed=2))
    summary = pipeline.run_all(cfg, tmp_path / "store", tmp_path / "out")
    assert summary.n_annotations == summary.n_articles == 120
    assert sum(calls.values()) == summary.n_annotations
    assert set(calls.values()) == {1}


class Held(dict):
    """A dict that can be weakly referenced, to see when it is freed."""


def test_run_all_frees_annotations_and_embeddings_before_similarity(tmp_path, monkeypatch):
    refs = {}

    def keeping(stage):
        real = getattr(pipeline, stage)

        def kept(*args, **kwargs):
            out = Held(real(*args, **kwargs))
            refs[stage] = weakref.ref(out)
            return out

        monkeypatch.setattr(pipeline, stage, kept)

    keeping("annotate")
    keeping("embed")
    alive = []
    real_windowed = pipeline.windowed_max_similarity

    def windowed(*args, **kwargs):
        alive.append((refs["annotate"]() is not None, refs["embed"]() is not None))
        return real_windowed(*args, **kwargs)

    monkeypatch.setattr(pipeline, "windowed_max_similarity", windowed)
    cfg = synthetic_cfg(tmp_path, make_articles(60, seed=2))
    summary = pipeline.run_all(cfg, tmp_path / "store", tmp_path / "out")
    assert summary.n_annotations == 60 and summary.n_similarity_results == 36
    assert alive == [(False, False)] * 36


def test_similarity_iterator_does_not_hold_the_embeddings(annotated):
    corpus, annotations, _ = annotated
    embeddings = Held(embed_annotations(annotations, HashedEmbeddingProvider(dim=16)))
    pairs = pipeline._org_pairs(corpus)[:2]
    cfg = override(RunConfig(), bootstrap_resamples=50)
    expected = list(pipeline.similarity(cfg, corpus, embeddings, pairs))
    results = pipeline.similarity(cfg, corpus, embeddings, pairs)
    ref = weakref.ref(embeddings)
    del embeddings
    assert ref() is None
    assert list(results) == expected
    assert len(expected) == 6


@pytest.fixture(scope="module")
def annotated(tmp_path_factory):
    articles = sorted(make_articles(300, seed=5), key=lambda a: (a.published_at, a.id))
    corpus = Corpus(tuple(articles), (dt.date(2018, 1, 1), dt.date(2023, 12, 31)))
    aliases = load_aliases_csv(write_alias_csv(tmp_path_factory.mktemp("aliases") / "a.csv"))
    return corpus, annotate_corpus(corpus, SyntheticChatProvider()), aliases


# min_support 21 keeps four of the six orgs and skips two; an empty
# political list skips every org for want of political entities.
@pytest.mark.parametrize("min_support", [1, 21, 10**6])
@pytest.mark.parametrize("none_political", [False, True])
def test_stages_on_the_view_match_the_public_functions(annotated, min_support, none_political):
    corpus, annotations, aliases = annotated
    if none_political:
        aliases = build_alias_map([], political=())
    cfg = override(RunConfig(), min_support=min_support, top_k_entities=10)
    mentions = {org: org_mentions(corpus, annotations, aliases, org) for org in corpus.orgs()}

    results, skipped = pipeline.polarity(cfg, mentions)
    expected, reasons = [], {}
    for org in corpus.orgs():
        try:
            expected.append(
                org_polarity(
                    corpus, annotations, aliases, org, top_k=cfg.top_k_polarity,
                    prec=cfg.precisions, min_support=min_support,
                )
            )
        except ValueError as exc:
            reasons[org] = str(exc)
    assert results == expected
    assert skipped == reasons
    assert len(results) == {1: 6, 21: 4, 10**6: 0}[min_support] * (not none_political)

    tops, _ = pipeline.entity_overlap(cfg, mentions, pipeline._org_pairs(corpus))
    assert sorted(tops) == list(corpus.orgs())
    for org, top in tops.items():
        anns = [annotations[a.id] for a in corpus.by_org(org)]
        assert top == top_k_entities(anns, aliases, cfg.top_k_entities, org=org)


def test_hostile_org_names_stay_flat_and_distinct_under_out(tmp_path):
    orgs = ("../../escaped", "A-B", "C", "A", "B-C", "A/B")  # one country
    work = tmp_path / "a" / "b"
    work.mkdir(parents=True)
    cfg = synthetic_cfg(work, make_articles(60, orgs=orgs, seed=7))
    before = set(tmp_path.rglob("*"))
    pipeline.run_all(cfg, work / "store", work / "out")

    roots = [work / "out", work / "store", work / "cache"]
    for path in set(tmp_path.rglob("*")) - before:
        assert any(path == root or root in path.parents for root in roots), path
    pairs = len(orgs) * (len(orgs) - 1)
    for name, expected in (("similarity", 3 * pairs), ("entities", pairs)):
        written = list((work / "out" / name).iterdir())
        assert len(written) == expected
        assert all(path.is_file() for path in written)


def test_long_org_names_get_bounded_distinct_file_names(tmp_path):
    orgs = ("A" * 250, "A" * 249 + "B", "B")  # one country
    cfg = synthetic_cfg(tmp_path, make_articles(30, orgs=orgs, seed=7))
    pipeline.run_all(cfg, tmp_path / "store", tmp_path / "out")

    pairs = len(orgs) * (len(orgs) - 1)
    written = [p for p in (tmp_path / "out").rglob("*") if p.is_file()]
    assert len(written) - 1 == 6 + 4 * pairs  # all but run_config.txt
    assert all(len(p.name.encode("utf-8")) <= 255 for p in written)
    for name, expected in (("similarity", 3 * pairs), ("entities", pairs)):
        assert len(list((tmp_path / "out" / name).iterdir())) == expected


def test_escaped_names_keep_short_names_and_bound_long_ones():
    for org in ("PolitiFact", "CheckYourFact", "A-B", "../x", "é" * 60):
        assert len(pipeline._escaped(org).encode("utf-8")) <= pipeline._NAME_BYTES
        assert "%%" not in pipeline._escaped(org)
    assert pipeline._escaped("PolitiFact") == "PolitiFact"
    long = ["A" * 250, "A" * 249 + "B", "é" * 200, "%" * 100, "-" * 41]
    escaped = [pipeline._escaped(org) for org in long]
    assert len(set(escaped)) == len(long)
    for org, name in zip(long, escaped):
        assert len(name.encode("utf-8")) <= pipeline._NAME_BYTES
        assert "%%" in name


def test_run_all_completes_when_one_response_holds_an_unpaired_surrogate(tmp_path, stub_post):
    """One chat response that no writer can encode fails its own tag; the
    run writes every store and report file."""
    articles = make_articles(12, seed=2)
    poisoned = articles[5]
    synthetic = SyntheticChatProvider()

    def reply(body):
        prompt = body["messages"][0]["content"]
        template_id = next(
            t for t in prompts.TEMPLATE_IDS if prompt.startswith(prompts.TEMPLATES[t][:20])
        )
        if template_id == prompts.CLAIM and poisoned.body in prompt:
            return chat_reply("bad \ud800 x")
        return chat_reply(synthetic.complete(prompt, template_id))

    stub_post(reply)
    cfg = override(
        synthetic_cfg(tmp_path, articles), provider_kind="http",
        provider_endpoint="http://chat.test/v1", provider_rate_limit=1e6,
    )
    summary = pipeline.run_all(cfg, tmp_path / "store", tmp_path / "out")
    assert summary.n_annotations == 12
    annotations = load_annotations(tmp_path / "store" / pipeline.ANNOTATIONS_FILE)
    failed = {a.article_id: a.failed_tags for a in annotations.values() if a.failed_tags}
    assert failed == {poisoned.id: ("claim",)}
    assert len(list((tmp_path / "cache").glob("*.json"))) == 3 * 12 - 1
    assert (tmp_path / "out" / "charts" / "polarity.svg").exists()


def test_every_output_parses_whatever_the_org_names(tmp_path):
    """Names holding a carriage return, a control character XML forbids, a
    comma and a quote: every CSV reads back at its header's width, every
    JSON loads and the chart parses."""
    names = {"PolitiFact": "Poli\rFact", "Snopes": "Sno\x01pes", "AltNews": 'Alt, "News"'}
    articles = [replace(a, org=names.get(a.org, a.org)) for a in make_articles(300, seed=1)]
    out = tmp_path / "out"
    pipeline.run_all(synthetic_cfg(tmp_path, articles), tmp_path / "store", out)
    read = Counter()
    for path in sorted(out.rglob("*")):
        if path.suffix == ".csv":
            with open(path, newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            assert rows and {len(row) for row in rows} == {len(header)}, path.name
            if "org" in header or "org_x" in header:
                column = header.index("org" if "org" in header else "org_x")
                assert set(names.values()) <= {row[column] for row in rows}, path.name
        elif path.suffix == ".json":
            json.loads(path.read_text(encoding="utf-8"))
        elif path.suffix == ".svg":
            ElementTree.parse(path)
        read[path.suffix] += 1
    assert read[".csv"] == 4 and read[".svg"] == 1 and read[".json"] == 1 + 12 + 12 * 3
