"""Corpus loading: JSON-lines article records -> validated, sorted Corpus.

One record per line with fields id, org, country, published_at (ISO
YYYY-MM-DD), title, body and optional url. Invalid or out-of-range records
are skipped and reported in a rejection list; duplicate ids keep the first
occurrence in file order. Iteration order is total: sorted by
(published_at, id).
"""

from __future__ import annotations

import codecs
import datetime as dt
import json
import logging
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

from .config import parse_date
from .report import DECODER, encodable, parse_json, reading, write_output

logger = logging.getLogger(__name__)

# Well-known organizations and their country; org remains an open string.
KNOWN_ORGS = {
    "PolitiFact": "USA",
    "Snopes": "USA",
    "CheckYourFact": "USA",
    "AltNews": "India",
    "Boom": "India",
    "OpIndia": "India",
}

_REQUIRED_FIELDS = ("id", "org", "country", "published_at", "title", "body")
_TEXT_FIELDS = ("id", "org", "country", "title", "body", "url")


@dataclass(frozen=True, slots=True)
class Article:
    id: str
    org: str
    country: str
    published_at: dt.date
    title: str
    body: str
    url: str | None = None


@dataclass(frozen=True)
class Corpus:
    """Immutable, deterministically ordered collection of articles."""

    articles: tuple[Article, ...]
    date_range: tuple[dt.date, dt.date]

    def __len__(self) -> int:
        return len(self.articles)

    def __iter__(self) -> Iterator[Article]:
        return iter(self.articles)

    @cached_property
    def _org_index(self) -> dict[str, list[Article]]:  # org -> articles, corpus order
        index: dict[str, list[Article]] = {}
        for a in self.articles:
            index.setdefault(a.org, []).append(a)
        return index

    def orgs(self) -> list[str]:
        return sorted(self._org_index)

    def by_org(self, org: str) -> list[Article]:
        return list(self._org_index.get(org, ()))


@dataclass(frozen=True, slots=True)
class Rejection:
    line_no: int
    article_id: str | None
    reason: str


@dataclass(frozen=True)
class IngestResult:
    corpus: Corpus
    rejections: tuple[Rejection, ...]


class CorpusError(Exception):
    """Fatal corpus problem (unreadable file, bad date range)."""


def _parse_record(raw: dict, date_range: tuple[dt.date, dt.date], line: str) -> Article:
    """Validate one record decoded from line; raises ValueError with a reason."""
    for field in _REQUIRED_FIELDS:
        if field not in raw:
            raise ValueError(f"missing field '{field}'")
    for field in ("id", "org", "country", "title", "body"):
        if not isinstance(raw[field], str):
            raise ValueError(f"field '{field}' is not a string")
    if not raw["id"]:
        raise ValueError("empty id")
    if not raw["body"].strip():
        raise ValueError("empty body")
    try:
        published = parse_date(raw["published_at"])
    except (TypeError, ValueError):
        raise ValueError(f"invalid date {raw['published_at']!r}") from None
    start, end = date_range
    if not (start <= published <= end):
        raise ValueError(f"date {published.isoformat()} outside range")
    url = raw.get("url")
    if url is not None and not isinstance(url, str):
        raise ValueError("field 'url' is not a string")
    if not encodable(list(map(raw.get, _TEXT_FIELDS)), line):
        field = next(field for field in _TEXT_FIELDS if not encodable(raw.get(field), line))
        raise ValueError(f"field '{field}' holds an unpaired surrogate")
    return Article(
        id=raw["id"],
        org=raw["org"],
        country=raw["country"],
        published_at=published,
        title=raw["title"],
        body=raw["body"],
        url=url,
    )


def ingest(path: str | Path, date_range: tuple[dt.date, dt.date]) -> IngestResult:
    """Load a JSON-lines corpus file, keeping valid in-range records.

    Lines end at ``\n``, ``\r\n`` or ``\r``, as a text-mode file reads
    them, and a leading byte order mark is skipped. Every input line
    becomes either one Article or one Rejection (a line that is not UTF-8,
    or whose JSON repeats a key, too), so ``len(corpus) + len(rejections)``
    equals the number of lines.
    """
    path = Path(path)
    start, end = date_range
    if start > end:
        raise CorpusError(f"date range start {start} after end {end}")
    try:
        lines = path.read_bytes().removeprefix(codecs.BOM_UTF8).splitlines()
    except OSError as exc:
        raise CorpusError(f"cannot read corpus file {path}: {exc}") from exc

    articles: dict[str, Article] = {}
    rejections: list[Rejection] = []
    for line_no, raw_line in enumerate(lines, start=1):
        try:
            line = raw_line.decode("utf-8")
        except UnicodeDecodeError as exc:
            reason = f"invalid UTF-8: {exc.reason} at byte {exc.start}"
            rejections.append(Rejection(line_no, None, reason))
            continue
        if not line.strip():
            rejections.append(Rejection(line_no, None, "blank line"))
            continue
        try:
            raw = DECODER.decode(line)
        except (ValueError, RecursionError) as exc:  # also over-long ints, deep nesting
            rejections.append(Rejection(line_no, None, f"invalid JSON: {getattr(exc, 'msg', exc)}"))
            continue
        if not isinstance(raw, dict):
            rejections.append(Rejection(line_no, None, "record is not an object"))
            continue
        try:
            article = _parse_record(raw, date_range, line)
        except ValueError as exc:
            rid = raw.get("id")
            rid = rid if isinstance(rid, str) and encodable(rid, line) else None
            rejections.append(Rejection(line_no, rid, str(exc)))
            continue
        if article.id in articles:
            rejections.append(Rejection(line_no, article.id, "duplicate id"))
            continue
        articles[article.id] = article

    ordered = tuple(sorted(articles.values(), key=lambda a: (a.published_at, a.id)))
    for r in rejections:
        logger.info("rejected line %d (%s): %s", r.line_no, r.article_id or "-", r.reason)
    return IngestResult(Corpus(ordered, date_range), tuple(rejections))


def org_counts(corpus: Corpus, by_year: bool = False) -> dict:
    """Article counts per org, or per (org, year) when by_year is set.

    Only observed cells appear; absent cells are implicitly zero.
    """
    counts: dict = {}
    for a in corpus:
        key = (a.org, a.published_at.year) if by_year else a.org
        counts[key] = counts.get(key, 0) + 1
    return counts


def canonical_record(article: Article) -> str:
    """Canonical single-line JSON form of one article; ingest of these lines
    is a fixed point."""
    return json.dumps(
        {
            "id": article.id,
            "org": article.org,
            "country": article.country,
            "published_at": article.published_at.isoformat(),
            "title": article.title,
            "body": article.body,
            "url": article.url,
        },
        ensure_ascii=False,
        separators=(",", ":"),
    )


def write_store(
    result: IngestResult, store_dir: str | Path
) -> tuple[Path, Path]:
    """Persist a canonical corpus plus rejection log into a store directory.

    meta.json goes once the new corpus text is written out whole, before
    that text replaces corpus.jsonl, and is written last. So a write that
    stops midway leaves either the old store or one without meta.json,
    which load_store refuses; never the new corpus under the old date
    range. A write that fails before then leaves the old store as it was.
    """
    store = Path(store_dir)
    meta = store / "meta.json"

    def corpus_lines() -> Iterator[str]:
        for article in result.corpus:
            yield canonical_record(article) + "\n"
        meta.unlink(missing_ok=True)

    corpus_path = write_output(store / "corpus.jsonl", corpus_lines())
    rejects_path = write_output(store / "rejections.log", (
        json.dumps({"line": r.line_no, "id": r.article_id, "reason": r.reason},
                   ensure_ascii=False) + "\n"
        for r in result.rejections
    ))
    start, end = result.corpus.date_range
    write_output(
        meta, json.dumps({"date_from": start.isoformat(), "date_to": end.isoformat()}) + "\n"
    )
    return corpus_path, rejects_path


def load_store(store_dir: str | Path) -> Corpus:
    """Load the canonical corpus written by :func:`write_store`."""
    store = Path(store_dir)
    meta_path = store / "meta.json"
    if not meta_path.exists():
        raise CorpusError(f"store {store} has no meta.json (run ingest first)")
    with reading(meta_path, "not a valid store meta file", error=CorpusError):
        meta = parse_json(meta_path.read_bytes())
        start, end = (parse_date(meta[key]) for key in ("date_from", "date_to"))
        if start > end:
            raise ValueError(f"date_from {start} is after date_to {end}")
    result = ingest(store / "corpus.jsonl", (start, end))
    if result.rejections:
        first = result.rejections[0]
        raise CorpusError(
            f"{store / 'corpus.jsonl'}:{first.line_no}: store corpus is not canonical "
            f"({len(result.rejections)} bad lines; first: {first.reason})"
        )
    return result.corpus


def write_corpus_file(articles: Iterable[Article], path: str | Path) -> None:
    """Write articles as a JSON-lines corpus file (input format of ingest)."""
    write_output(path, (canonical_record(a) + "\n" for a in articles))
