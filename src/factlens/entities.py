"""Entity canonicalization, political filtering, and set overlap.

Surface forms map through a curated alias table to canonical names
(canonical names are fixed points); unmapped surfaces canonicalize to
themselves. ``entity_labels`` applies that mapping, the political filter
and the one-tag-per-entity-per-article rule; ``org_mentions`` applies it
once per article of an org, and overlap and polarity both read that
view. Overlap between organizations is the Jaccard similarity of
their top-k political-entity sets, either globally or recomputed per
+/-w day window around each publication day.
"""

from __future__ import annotations

import datetime as dt
import logging
import statistics
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .annotation import Annotation
from .corpus import Corpus
from .report import read_csv_records

logger = logging.getLogger(__name__)

# An org's entity view: one (date, canonical -> label) per article.
Mentions = Sequence[tuple[dt.date, Mapping[str, str]]]
_date = itemgetter(0)  # key of a mention


def _lookup_key(surface: str) -> str:
    return " ".join(surface.split()).casefold()


@dataclass(frozen=True)
class AliasMap:
    """surface form -> canonical name, plus the political-name whitelist.

    ``political=None`` means no curated list was supplied and every
    canonical name passes the political filter.
    """

    mapping: Mapping[str, str]  # keys are casefolded, whitespace-collapsed
    political: frozenset[str] | None = None

    @classmethod
    def empty(cls) -> "AliasMap":
        return cls(mapping={}, political=None)

    def is_political(self, canonical: str) -> bool:
        if self.political is None:
            return True
        return canonical in self.political


def canonicalize(surface: str, aliases: AliasMap) -> str:
    """Canonical name for a surface form; unmapped surfaces are their own."""
    trimmed = " ".join(surface.split())
    return aliases.mapping.get(_lookup_key(trimmed), trimmed)


def build_alias_map(
    pairs: Iterable[tuple[str, str]], political: Iterable[str] | None = None
) -> AliasMap:
    """Build an AliasMap from (surface, canonical) pairs.

    Canonical names are forced to be fixed points; the political set, if
    given, holds canonical names.
    """
    mapping: dict[str, str] = {}
    for surface, canonical in pairs:
        canonical = " ".join(canonical.split())
        mapping[_lookup_key(surface)] = canonical
        mapping.setdefault(_lookup_key(canonical), canonical)
    pol = None if political is None else frozenset(political)
    return AliasMap(mapping=mapping, political=pol)


def load_aliases_csv(path: str | Path) -> AliasMap:
    """Read the alias sidecar: columns surface, canonical, political.

    The political yes/no flag is meaningful on canonical rows (surface
    equal to canonical) but is honored wherever it appears.
    """
    pairs: list[tuple[str, str]] = []
    political: set[str] = set()
    for row in read_csv_records(path):
        surface = (row.get("surface") or "").strip()
        canonical = (row.get("canonical") or "").strip()
        if not surface or not canonical:
            continue
        pairs.append((surface, canonical))
        flag = (row.get("political") or "").strip().lower()
        if flag == "yes":
            political.add(" ".join(canonical.split()))
    return build_alias_map(pairs, political)


@dataclass(frozen=True)
class EntitySet:
    org: str
    k: int
    entities: tuple[tuple[str, int], ...]  # (canonical name, frequency)

    def names(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.entities)


def entity_labels(
    ann: Annotation | None, aliases: AliasMap, political_only: bool = True
) -> dict[str, str] | None:
    """Canonical entity -> sentiment label for one article's annotation.

    One tag per entity per article: when aliases merge surface forms, the
    first surface form's label wins. None when the article has no
    annotation or its entities tag failed.
    """
    if ann is None or "entities" in ann.failed_tags:
        return None
    labels: dict[str, str] = {}
    for surface, label in ann.entities.items():
        name = canonicalize(surface, aliases)
        if not political_only or aliases.is_political(name):
            labels.setdefault(name, label)
    return labels


def entity_set(label_sets: Iterable[Iterable[str]], k: int, org: str = "") -> EntitySet:
    """The k most frequent names, one count per article's labels; ties go
    to the smaller name."""
    if k < 1:
        raise ValueError("k must be >= 1")
    counter = Counter(chain.from_iterable(label_sets))
    ranked = sorted(counter.items(), key=lambda item: (-item[1], item[0]))
    return EntitySet(org=org, k=k, entities=tuple(ranked[:k]))


def top_k_entities(
    annotations: Iterable[Annotation],
    aliases: AliasMap,
    k: int,
    political_only: bool = True,
    org: str = "",
) -> EntitySet:
    """Most frequent canonical entities; one count per mentioning article."""
    per_article = (entity_labels(ann, aliases, political_only) for ann in annotations)
    return entity_set((labels for labels in per_article if labels is not None), k, org)


def jaccard(a: frozenset | set, b: frozenset | set) -> float | None:
    """Intersection over union; None when both sets are empty."""
    if not a and not b:
        return None
    return len(a & b) / len(a | b)


@dataclass(frozen=True)
class WindowedJaccard:
    org_x: str
    org_y: str
    k: int
    window_days: int
    days: tuple[dt.date, ...]
    values: tuple[float, ...]
    median: float | None


def org_mentions(
    corpus: Corpus,
    annotations: Mapping[str, Annotation],
    aliases: AliasMap,
    org: str,
    political_only: bool = True,
) -> Mentions:
    """The org's entity view: (date, canonical -> label) for every article
    with usable entities, sorted by date. Overlap and polarity both read it."""
    out = []
    for article in corpus.by_org(org):
        labels = entity_labels(annotations.get(article.id), aliases, political_only)
        if labels is not None:
            out.append((article.published_at, labels))
    out.sort(key=_date)
    return out


def _window_top_k(ordered: Mentions, lo: dt.date, hi: dt.date, k: int) -> frozenset[str]:
    """Top-k names over date-sorted mentions dated within [lo, hi]."""
    window = ordered[bisect_left(ordered, lo, key=_date) : bisect_right(ordered, hi, key=_date)]
    return entity_set((names for _, names in window), k).names()


def windowed_jaccard(
    x_mentions: Mentions,
    y_mentions: Mentions,
    k: int,
    window_days: int,
    org_x: str = "X",
    org_y: str = "Y",
) -> WindowedJaccard:
    """Per-day overlap of windowed top-k entity sets.

    For each calendar day carrying at least one X article, both
    organizations' top-k sets are rebuilt over [d-w, d+w]; days where
    either set is empty are skipped.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    window = dt.timedelta(days=window_days)
    xs, ys = sorted(x_mentions, key=_date), sorted(y_mentions, key=_date)
    kept_days: list[dt.date] = []
    values: list[float] = []
    for day in sorted({date for date, _ in xs}):
        lo, hi = day - window, day + window
        set_x, set_y = _window_top_k(xs, lo, hi, k), _window_top_k(ys, lo, hi, k)
        if not set_x or not set_y:
            continue
        js = jaccard(set_x, set_y)
        assert js is not None
        kept_days.append(day)
        values.append(js)
    if not values:
        logger.warning("windowed jaccard %s-%s: no qualifying days", org_x, org_y)
    return WindowedJaccard(
        org_x=org_x,
        org_y=org_y,
        k=k,
        window_days=window_days,
        days=tuple(kept_days),
        values=tuple(values),
        median=statistics.median(values) if values else None,
    )
