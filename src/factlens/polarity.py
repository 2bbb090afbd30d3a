"""Polarity scores per (organization, entity, period) with uncertainty.

The score is (positive - negative) / total over article-level sentiment
tags; zero is neutral, -1 fully negative. The worst-case propagated
error from imperfect tag precision is
(N_p*(1-precision_p) + N_n*(1-precision_n)) / N_t, shown as error bars.
"""

from __future__ import annotations

import logging
from fractions import Fraction
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .annotation import Annotation
from .config import PrecisionConfig, RunConfig
from .corpus import Corpus
from .entities import AliasMap, Mentions, canonicalize, org_mentions
from .report import parse_csv, read_text, reading

logger = logging.getLogger(__name__)

OVERALL = "overall"


@dataclass(frozen=True)
class PolarityCounts:
    org: str
    entity: str
    period: str  # a year like "2020", or "overall"
    n_pos: int
    n_neg: int
    n_total: int

    def __post_init__(self) -> None:
        if min(self.n_pos, self.n_neg, self.n_total) < 0:
            raise ValueError("counts must be non-negative")
        if self.n_pos + self.n_neg > self.n_total:
            raise ValueError("n_pos + n_neg cannot exceed n_total")


@dataclass(frozen=True)
class PolarityResult:
    counts: PolarityCounts
    ps: float
    delta_ps: float


def polarity_score(counts: PolarityCounts) -> float:
    """(N_p - N_n) / N_t, in [-1, 1]."""
    if counts.n_total < 1:
        raise ValueError("polarity score undefined for n_total = 0")
    return (counts.n_pos - counts.n_neg) / counts.n_total


def max_log_error(counts: PolarityCounts, prec: PrecisionConfig) -> float:
    """Worst-case propagated score error from imperfect tag precision.

    Evaluated as an exact rational before the final rounding, so scaling
    all counts by the same factor leaves the result bit-identical.
    """
    if counts.n_total < 1:
        raise ValueError("max log error undefined for n_total = 0")
    numerator = counts.n_pos * (1 - Fraction(prec.positive)) + counts.n_neg * (
        1 - Fraction(prec.negative)
    )
    return float(numerator / counts.n_total)


def score(counts: PolarityCounts, prec: PrecisionConfig) -> PolarityResult:
    return PolarityResult(counts, polarity_score(counts), max_log_error(counts, prec))


def _tag_counts(mentions: Mentions) -> dict[str, dict[str, list[int]]]:
    """entity -> period -> [n_pos, n_neg, n_total] over an org's entity view."""
    counts: dict[str, dict[str, list[int]]] = defaultdict(
        lambda: defaultdict(lambda: [0, 0, 0])
    )
    for published_at, labels in mentions:
        year = str(published_at.year)
        for name, label in labels.items():
            for period in (year, OVERALL):
                cell = counts[name][period]
                cell[2] += 1
                if label == "positive":
                    cell[0] += 1
                elif label == "negative":
                    cell[1] += 1
    return counts


def entity_series(
    corpus: Corpus,
    annotations: Mapping[str, Annotation],
    aliases: AliasMap,
    org: str,
    entity: str,
    prec: PrecisionConfig | None = None,
) -> list[PolarityResult]:
    """Polarity per year plus overall for the entity's canonical name.

    An entity with zero occurrences yields an empty list.
    """
    view = org_mentions(corpus, annotations, aliases, org, political_only=False)
    return view_series(view, org, [canonicalize(entity, aliases)], prec)


def view_series(
    mentions: Mentions,
    org: str,
    names: Iterable[str],
    prec: PrecisionConfig | None = None,
) -> list[PolarityResult]:
    """entity_series of each canonical name in turn, concatenated, all read
    from one org's entity view."""
    prec = prec or PrecisionConfig()
    table = _tag_counts(mentions)
    out = []
    for name in names:
        per_period = table.get(name)
        if not per_period:
            logger.warning("no occurrences of %r at %s", name, org)
            continue
        periods = sorted(p for p in per_period if p != OVERALL) + [OVERALL]
        out.extend(
            score(PolarityCounts(org, name, period, *per_period[period]), prec)
            for period in periods
        )
    return out


@dataclass(frozen=True)
class OrgPolarity:
    org: str
    micro_ps: float
    macro_ps: float
    entities: tuple[PolarityResult, ...]  # ranked by support, then name


def org_polarity(
    corpus: Corpus,
    annotations: Mapping[str, Annotation],
    aliases: AliasMap,
    org: str,
    top_k: int = RunConfig.top_k_polarity,
    prec: PrecisionConfig | None = None,
    min_support: int = RunConfig.min_support,
) -> OrgPolarity:
    """score_org over the organization's political-entity view; the defaults
    are RunConfig's."""
    return score_org(
        org_mentions(corpus, annotations, aliases, org), org, top_k,
        prec or PrecisionConfig(), min_support,
    )


def score_org(
    mentions: Mentions, org: str, top_k: int, prec: PrecisionConfig, min_support: int
) -> OrgPolarity:
    """Micro- and macro-averaged polarity for one organization's entity view.

    Micro pools counts over every political entity; macro is the
    unweighted mean score of the top_k entities by occurrence count
    (entities below min_support are excluded from the ranking).
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    table = _tag_counts(mentions)
    if not table:
        raise ValueError(f"no political entities tagged for organization {org!r}")

    overall = {name: per_period[OVERALL] for name, per_period in table.items()}
    total_pos, total_neg, total = (sum(cell[i] for cell in overall.values()) for i in range(3))
    micro = (total_pos - total_neg) / total
    ranked = sorted(
        (item for item in overall.items() if item[1][2] >= min_support),
        key=lambda item: (-item[1][2], item[0]),
    )
    results = tuple(
        score(PolarityCounts(org, name, OVERALL, *cell), prec) for name, cell in ranked
    )
    top = results[:top_k]
    if not top:
        raise ValueError(f"no entities with support >= {min_support} for organization {org!r}")
    macro = sum(r.ps for r in top) / len(top)
    return OrgPolarity(org, micro, macro, results)


def negativity_ratio(
    corpus: Corpus,
    annotations: Mapping[str, Annotation],
    aliases: AliasMap,
    org: str,
    entity_a: str,
    entity_b: str,
) -> float | None:
    """Ratio of negative-tag rates (a over b); None when b's rate is zero.

    Evaluated as (a_neg * b_total) / (a_total * b_neg), the exact integer
    form of (a_neg/a_total) / (b_neg/b_total).
    """
    table = _tag_counts(org_mentions(corpus, annotations, aliases, org, political_only=False))
    cells = []
    for entity in (entity_a, entity_b):
        per_period = table.get(canonicalize(entity, aliases))
        if not per_period or per_period[OVERALL][2] < 1:
            raise ValueError(f"entity {entity!r} has no occurrences at {org!r}")
        _, n_neg, n_total = per_period[OVERALL]
        cells.append((n_neg, n_total))
    (a_neg, a_total), (b_neg, b_total) = cells
    if b_neg == 0:
        logger.warning(
            "negativity ratio undefined: %r has no negative tags at %s", entity_b, org
        )
        return None
    return (a_neg * b_total) / (a_total * b_neg)


def load_precisions_csv(path: str | Path) -> PrecisionConfig:
    """Read a CSV with positive and negative columns and one value row, by
    parse_csv's rules; any other column (a neutral one, say) is ignored.
    Any other content is a ValueError naming the file."""
    with reading(path, "not a valid precision file"):
        rows = parse_csv(read_text(path))
        if len(rows) != 1:
            raise ValueError(f"expected exactly one precision row, got {len(rows)}")
        cells = {name: rows[0].get(name) for name in ("positive", "negative")}
        for name, cell in cells.items():
            if cell is None:
                raise ValueError(f"precision_{name}: missing")
        return PrecisionConfig(**{name: float(cell) for name, cell in cells.items()})


def polarity_rows(
    results: Iterable[PolarityResult],
) -> list[dict]:
    """Flatten results into export-ready rows: the counts' fields, then ps
    and delta_ps."""
    return [{**asdict(r.counts), "ps": r.ps, "delta_ps": r.delta_ps} for r in results]
