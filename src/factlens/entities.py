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
from .report import parse_csv, read_text, reading

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

    Each canonical name maps to itself, so canonicalize is idempotent. A
    canonical name that is also another name's alias (a chain such as
    Biden -> Joe Biden -> President Biden), or that differs from another
    canonical name only in case or spacing, is a ValueError; so, checked
    after that, is a surface listed for two canonical names. The political
    set, if given, holds canonical names, whitespace-normalized here.
    """
    pairs = [(surface, " ".join(canonical.split())) for surface, canonical in pairs]
    mapping: dict[str, str] = {}
    for surface, canonical in pairs:
        mapping[_lookup_key(surface)] = canonical
        mapping.setdefault(_lookup_key(canonical), canonical)
    for _, canonical in pairs:
        if (mapped := mapping[_lookup_key(canonical)]) != canonical:
            raise ValueError(f"canonical name {canonical!r} is an alias of {mapped!r}")
    for surface, canonical in pairs:
        if (mapped := mapping[_lookup_key(surface)]) != canonical:
            raise ValueError(f"surface {surface!r} is listed for {canonical!r} and {mapped!r}")
    pol = None if political is None else frozenset(" ".join(name.split()) for name in political)
    return AliasMap(mapping=mapping, political=pol)


def load_aliases_csv(path: str | Path) -> AliasMap:
    """Read the alias sidecar: columns surface, canonical, political.

    The political flag (yes, no or blank, in any case and spacing) is
    meaningful on canonical rows (surface equal to canonical) but is
    honored wherever it appears. A row with both names blank is skipped. A
    file that parse_csv refuses, that lacks one of the three columns, that
    has a row with one name blank or another political cell, or whose
    pairs build_alias_map refuses is ``<path>: not a valid alias file``.
    """
    pairs: list[tuple[str, str]] = []
    political: set[str] = set()
    with reading(path, "not a valid alias file"):
        rows = parse_csv(read_text(path))
        for column in ("surface", "canonical", "political"):
            if rows and column not in rows[0]:
                raise ValueError(f"missing column {column!r}")
        for row in rows:
            surface, canonical = row["surface"].strip(), row["canonical"].strip()
            if surface and canonical:
                pairs.append((surface, canonical))
                flag = row["political"].strip().lower()
                if flag not in ("yes", "no", ""):
                    raise ValueError(
                        f"political cell {row['political']!r} for {surface!r}; "
                        "expected yes, no or blank"
                    )
                if flag == "yes":
                    political.add(canonical)
            elif surface or canonical:
                blank = "canonical" if surface else "surface"
                raise ValueError(f"a row names {surface or canonical!r} with a blank {blank}")
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


class WindowTopK:
    """One org's top-k names over the [d-w, d+w] window of each day d; each
    day's set is built the first time it is asked for."""

    def __init__(self, mentions: Mentions, k: int, window_days: int):
        self.k, self.window_days = k, window_days
        self._ordered = sorted(mentions, key=_date)
        self._ordinals = [date.toordinal() for date, _ in self._ordered]
        self._sets: dict[dt.date, frozenset[str]] = {}
        self.days = sorted({date for date, _ in self._ordered})  # those with a mention

    def at(self, day: dt.date) -> frozenset[str]:
        names = self._sets.get(day)
        if names is None:
            d, w = day.toordinal(), self.window_days
            window = self._ordered[
                bisect_left(self._ordinals, d - w) : bisect_right(self._ordinals, d + w)
            ]
            names = entity_set((labels for _, labels in window), self.k).names()
            self._sets[day] = names
        return names


def windowed_jaccard(
    x_mentions: Mentions,
    y_mentions: Mentions,
    k: int,
    window_days: int,
    org_x: str = "X",
    org_y: str = "Y",
    windows: dict[str, WindowTopK] | None = None,
) -> WindowedJaccard:
    """Per-day overlap of windowed top-k entity sets.

    For each calendar day carrying at least one X article, both
    organizations' top-k sets over [d-w, d+w]; days where either set is
    empty are skipped. ``windows``, when given, holds each org's window
    sets by name across the calls of one overlap run, so an org's set for
    a day is built once whichever pairs ask for it; an org's entry must
    come from the same mentions.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if windows is None:
        xs, ys = WindowTopK(x_mentions, k, window_days), WindowTopK(y_mentions, k, window_days)
    else:
        for org, mentions in ((org_x, x_mentions), (org_y, y_mentions)):
            if org not in windows:
                windows[org] = WindowTopK(mentions, k, window_days)
            elif (windows[org].k, windows[org].window_days) != (k, window_days):
                raise ValueError(f"window sets of {org} have another k or window_days")
        xs, ys = windows[org_x], windows[org_y]
    kept_days: list[dt.date] = []
    values: list[float] = []
    for day in xs.days:
        set_x = xs.at(day)
        set_y = ys.at(day) if set_x else None
        if not set_y:
            continue
        kept_days.append(day)
        values.append(jaccard(set_x, set_y))
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
