"""Synthetic fact-check corpora for offline runs, demos, and tests.

Articles are generated with a seeded PCG64 generator: dates uniform over
the range, one to three political entities per article, and sentiment
cue verbs drawn with per-organization negativity weights so polarity
analyses have visible structure. Bodies are plain English sentences that
the synthetic chat provider can annotate deterministically.
"""

from __future__ import annotations

import datetime as dt
from pathlib import Path

import numpy as np

from .config import RunConfig
from .corpus import KNOWN_ORGS, Article
from .report import write_output

US_ENTITIES = (
    "Joe Biden", "Donald Trump", "Barack Obama", "Kamala Harris",
    "Republican Party", "Democratic Party",
)
INDIA_ENTITIES = (
    "Narendra Modi", "Rahul Gandhi", "Arvind Kejriwal", "Yogi Adityanath",
    "Bharatiya Janata Party", "Indian National Congress",
)

_TOPICS = (
    "a viral video", "an old photograph", "a doctored screenshot",
    "a misleading chart", "a fabricated quote", "a satirical article",
    "an edited clip", "a false statistic",
)
_REASONS = (
    "it spread quickly on social media",
    "an old clip resurfaced out of context",
    "a parody account was mistaken for a real one",
    "the numbers were taken from an unrelated report",
    "the caption misattributed the footage",
)
# Per-organization probability that a mention reads negative / positive.
_ORG_TONE = {
    "PolitiFact": (0.45, 0.20),
    "Snopes": (0.55, 0.10),
    "CheckYourFact": (0.40, 0.25),
    "AltNews": (0.50, 0.15),
    "Boom": (0.40, 0.20),
    "OpIndia": (0.60, 0.10),
}
_NEGATIVE_VERBS = ("slammed", "criticized", "accused", "mocked")
_POSITIVE_VERBS = ("praised", "lauded", "credited")


def make_articles(
    n: int,
    date_range: tuple[dt.date, dt.date] = (RunConfig.date_from, RunConfig.date_to),
    orgs: tuple[str, ...] = tuple(KNOWN_ORGS),
    seed: int = 0,
) -> list[Article]:
    """Deterministic synthetic articles spread round-robin over orgs."""
    rng = np.random.default_rng(seed)
    start, end = date_range
    span = (end - start).days
    articles = []
    for i in range(n):
        org = orgs[i % len(orgs)]
        country = KNOWN_ORGS.get(org, "USA")
        pool = US_ENTITIES if country == "USA" else INDIA_ENTITIES
        date = start + dt.timedelta(days=int(rng.integers(0, span + 1)))
        k = int(rng.integers(1, 4))
        picks = list(rng.choice(len(pool), size=k, replace=False))
        entities = [pool[j] for j in picks]
        topic = _TOPICS[int(rng.integers(0, len(_TOPICS)))]
        reason = _REASONS[int(rng.integers(0, len(_REASONS)))]
        p_neg, p_pos = _ORG_TONE.get(org, (0.4, 0.2))

        sentences = [
            f"A post shared {topic} claiming that {entities[0]} made a secret deal."
        ]
        for entity in entities:
            u = rng.random()
            if u < p_neg:
                verb = _NEGATIVE_VERBS[int(rng.integers(0, len(_NEGATIVE_VERBS)))]
                sentences.append(f"Commentators {verb} {entity} over the viral claim.")
            elif u < p_neg + p_pos:
                verb = _POSITIVE_VERBS[int(rng.integers(0, len(_POSITIVE_VERBS)))]
                sentences.append(f"Supporters {verb} {entity} after the clarification.")
            else:
                sentences.append(f"Statements from {entity} were quoted without comment.")
        sentences.append(f"The claim circulated because {reason}.")

        articles.append(
            Article(
                id=f"{org.lower()}-{i:06d}",
                org=org,
                country=country,
                published_at=date,
                title=f"Fact check: {topic} about {entities[0]}",
                body=" ".join(sentences),
                url=None,
            )
        )
    return articles


def write_alias_csv(path: str | Path) -> Path:
    """Alias sidecar covering the synthetic entity pools plus common variants."""
    rows = [("surface", "canonical", "political")]
    for name in US_ENTITIES + INDIA_ENTITIES:
        rows.append((name, name, "yes"))
    rows += [
        ("President Biden", "Joe Biden", ""),
        ("Biden", "Joe Biden", ""),
        ("Trump", "Donald Trump", ""),
        ("President Trump", "Donald Trump", ""),
        ("Obama", "Barack Obama", ""),
        ("Modi", "Narendra Modi", ""),
        ("PM Modi", "Narendra Modi", ""),
        ("Gandhi", "Rahul Gandhi", ""),
        ("Kejriwal", "Arvind Kejriwal", ""),
        ("Adityanath", "Yogi Adityanath", ""),
        ("BJP", "Bharatiya Janata Party", ""),
        ("Congress", "Indian National Congress", ""),
        ("GOP", "Republican Party", ""),
        ("Democrats", "Democratic Party", ""),
        ("Republicans", "Republican Party", ""),
        ("NASA", "NASA", "no"),
    ]
    return write_output(path, (",".join(row) + "\n" for row in rows))  # no cell needs quoting
