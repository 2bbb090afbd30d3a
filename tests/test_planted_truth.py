"""Planted truth: the polarity counts of a synthetic run are the cue
sentences that make_articles wrote into the bodies, overall and per year;
each org's micro polarity recovers its planted tone; and the entity
overlap is that of the pool entities the bodies name.

The synthetic chat provider labels an entity by the cue verb of its
sentence; this oracle reads the generator's own sentence patterns instead.
"""

import csv
import json
import math
import re
from collections import Counter, defaultdict

import pytest
from click.testing import CliRunner

from factlens import pipeline
from factlens.cli import main
from factlens.config import RunConfig, override
from factlens.corpus import write_corpus_file
from factlens.polarity import OVERALL
from factlens.synthetic import (
    _ORG_TONE,
    INDIA_ENTITIES,
    US_ENTITIES,
    make_articles,
    write_alias_csv,
)
from tests.test_entities import naive_windowed_jaccard


def pool_mentions(article) -> frozenset[str]:
    """The pool entities the article's body names."""
    pool = US_ENTITIES if article.country == "USA" else INDIA_ENTITIES
    return frozenset(entity for entity in pool if entity in article.body)


def planted_counts(articles) -> dict[tuple[str, str, str], tuple[int, int, int]]:
    """(org, entity, period) -> (n_pos, n_neg, n_total) over the pool
    entities each body names: positive where "Supporters <verb> <entity>
    after" appears, negative where "Commentators <verb> <entity> over" does,
    neutral otherwise."""
    counts = defaultdict(lambda: [0, 0, 0])
    for article in articles:
        for entity in pool_mentions(article):
            name = re.escape(entity)
            positive = re.search(rf"Supporters \w+ {name} after", article.body) is not None
            negative = re.search(rf"Commentators \w+ {name} over", article.body) is not None
            for period in (str(article.published_at.year), OVERALL):
                cell = counts[article.org, entity, period]
                cell[0] += positive
                cell[1] += negative
                cell[2] += 1
    return {key: tuple(cell) for key, cell in counts.items()}


def read_counts(path) -> dict[tuple[str, str, str], tuple[int, int, int]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    counts = {
        (row["org"], row["entity"], row["period"]):
        (int(row["n_pos"]), int(row["n_neg"]), int(row["n_total"]))
        for row in rows
    }
    assert len(counts) == len(rows)
    return counts


@pytest.mark.parametrize("n, seed", [(600, 3), (1500, 7)])
def test_polarity_counts_are_the_planted_cues(tmp_path, n, seed):
    articles = make_articles(n, seed=seed)
    write_corpus_file(articles, tmp_path / "input.jsonl")
    aliases = str(write_alias_csv(tmp_path / "aliases.csv"))
    cfg = override(
        RunConfig(), input_file=str(tmp_path / "input.jsonl"), aliases_file=aliases,
        cache_dir=str(tmp_path / "cache"), min_support=1,
    )
    pipeline.run_all(cfg, tmp_path / "store", tmp_path / "out")
    truth = planted_counts(articles)

    overall = read_counts(tmp_path / "out" / "polarity.csv")
    assert overall == {key: cell for key, cell in truth.items() if key[2] == OVERALL}
    assert len(overall) == 36  # six orgs, six pool entities each

    result = CliRunner().invoke(main, [
        "polarity", "--store", str(tmp_path / "store"), "--aliases", aliases, "--by-year",
        "--min-support", "1", "--top-k", "6", "--out", str(tmp_path / "by_year.csv"),
    ])
    assert result.exit_code == 0, result.output
    assert read_counts(tmp_path / "by_year.csv") == truth


@pytest.fixture(scope="module")
def run_3000(tmp_path_factory):
    """make_articles(3000, seed=1) through run_all with top_k_entities = 3,
    so the entity ranking and its name tie-break decide the overlap."""
    base = tmp_path_factory.mktemp("planted")
    articles = make_articles(3000, seed=1)
    write_corpus_file(articles, base / "input.jsonl")
    cfg = override(
        RunConfig(), input_file=str(base / "input.jsonl"),
        aliases_file=str(write_alias_csv(base / "aliases.csv")),
        cache_dir=str(base / "cache"), top_k_entities=3,
    )
    pipeline.run_all(cfg, base / "store", base / "out")
    return articles, cfg, base / "out"


def test_micro_polarity_recovers_the_planted_tone(run_3000):
    """Each mention is positive with p_pos and negative with p_neg, so an
    org's micro score estimates p_pos - p_neg with standard error
    sqrt((p_pos + p_neg - (p_pos - p_neg)^2) / n) over its n mentions."""
    articles, _, out = run_3000
    mentions = defaultdict(int)
    for (org, _, period), (_, _, n_total) in planted_counts(articles).items():
        if period == OVERALL:
            mentions[org] += n_total
    with open(out / "org_polarity.csv", newline="", encoding="utf-8") as fh:
        micro = {row["org"]: float(row["micro_ps"]) for row in csv.DictReader(fh)}
    assert set(micro) == set(_ORG_TONE)
    for org, (p_neg, p_pos) in _ORG_TONE.items():
        tone = p_pos - p_neg
        se = math.sqrt((p_pos + p_neg - tone**2) / mentions[org])
        assert abs(micro[org] - tone) <= 4 * se, (org, micro[org], tone, se)


def test_entity_overlap_is_that_of_the_planted_mentions(run_3000):
    articles, cfg, out = run_3000
    k, w = cfg.top_k_entities, cfg.window_days
    dated = defaultdict(list)
    for article in articles:
        dated[article.org].append((article.published_at, pool_mentions(article)))

    def top_k(org):
        counts = Counter(name for _, names in dated[org] for name in names)
        return {name for name, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]}

    overlaps = sorted((out / "entities").glob("*.json"))
    assert len(overlaps) == 12  # three orgs per country, ordered pairs
    for path in overlaps:
        [row] = json.loads(path.read_text(encoding="utf-8"))
        x, y = top_k(row["org_x"]), top_k(row["org_y"])
        assert row["global_jaccard"] == round(len(x & y) / len(x | y), 4), path.name
        oracle = naive_windowed_jaccard(dated[row["org_x"]], dated[row["org_y"]], k, w)
        assert row["windowed_days"] == [d.isoformat() for d in oracle], path.name
        assert row["windowed_values"] == [round(v, 4) for v in oracle.values()], path.name
