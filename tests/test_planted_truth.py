"""Planted truth: the polarity counts of a synthetic run are the cue
sentences that make_articles wrote into the bodies, overall and per year.

The synthetic chat provider labels an entity by the cue verb of its
sentence; this oracle reads the generator's own sentence patterns instead.
"""

import csv
import re
from collections import defaultdict

import pytest
from click.testing import CliRunner

from factlens import pipeline
from factlens.cli import main
from factlens.config import RunConfig, override
from factlens.corpus import write_corpus_file
from factlens.polarity import OVERALL
from factlens.synthetic import INDIA_ENTITIES, US_ENTITIES, make_articles, write_alias_csv


def planted_counts(articles) -> dict[tuple[str, str, str], tuple[int, int, int]]:
    """(org, entity, period) -> (n_pos, n_neg, n_total) over the pool
    entities each body names: positive where "Supporters <verb> <entity>
    after" appears, negative where "Commentators <verb> <entity> over" does,
    neutral otherwise."""
    counts = defaultdict(lambda: [0, 0, 0])
    for article in articles:
        pool = US_ENTITIES if article.country == "USA" else INDIA_ENTITIES
        for entity in pool:
            if entity not in article.body:
                continue
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
