"""Per-article annotation: three prompt passes with caching and repair.

Each article yields claim sentences, what/why sentences, and an
entity -> sentiment map. Raw responses are cached byte-equal on disk
keyed by (template id, rendered prompt, model) and re-parsed on read, so
a warm run never touches the provider and parses identically. One pass
over the corpus reads each cache entry, sends each miss as soon as it is
found, and parses each article once its three responses are in hand.
"""

from __future__ import annotations

import errno
import json
import logging
import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from queue import SimpleQueue
from typing import Any, Callable, Iterable, Iterator, Mapping

from . import parsing, prompts
from .corpus import Article, Corpus
from .providers import (
    ChatProvider,
    ProviderCallError,
    ProviderConfig,
    ProviderUnreachableError,
    cache_key,
)
from .report import DECODE_ERRORS, encodable, parse_json, read_json_lines, reading, write_output

logger = logging.getLogger(__name__)

SENTENCE_TAGS = ("claim", "what", "why")


def _check_entities(entities: object) -> None:
    """A TypeError unless entities maps non-blank names to sentiment labels:
    the rule of a stored row's entities, read and written alike."""
    if not isinstance(entities, dict) or not all(
        name.strip() and label in parsing.SENTIMENT_LABELS for name, label in entities.items()
    ):
        raise TypeError("entities: expected non-empty names mapped to sentiment labels")


@dataclass(frozen=True, slots=True)
class Annotation:
    article_id: str
    claim: tuple[str, ...] = ()
    what: tuple[str, ...] = ()
    why: tuple[str, ...] = ()
    entities: Mapping[str, str] = field(default_factory=dict)
    failed_tags: tuple[str, ...] = ()
    flags: tuple[str, ...] = ()

    def sentences(self, tag: str) -> tuple[str, ...]:
        if tag not in SENTENCE_TAGS:
            raise ValueError(f"unknown sentence tag {tag!r}")
        return getattr(self, tag)

    def to_json_dict(self) -> dict:
        return {
            "article_id": self.article_id,
            "claim": list(self.claim),
            "what": list(self.what),
            "why": list(self.why),
            "entities": dict(self.entities),
            "failed_tags": list(self.failed_tags),
            "flags": list(self.flags),
        }

    @classmethod
    def from_json_dict(cls, raw: dict) -> "Annotation":
        """The annotation of a stored row; a field of the wrong type is a TypeError."""

        def strings(key: str) -> tuple[str, ...]:
            value = raw.get(key, [])
            if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
                raise TypeError(f"{key}: expected a list of strings")
            return tuple(value)

        if not isinstance(raw["article_id"], str):
            raise TypeError("article_id: expected a string")
        entities = raw.get("entities", {})
        _check_entities(entities)
        return cls(
            article_id=raw["article_id"],
            claim=strings("claim"),
            what=strings("what"),
            why=strings("why"),
            entities=dict(entities),
            failed_tags=strings("failed_tags"),
            flags=strings("flags"),
        )


# The errors for which Path.exists() reads False: no entry, not a corrupt one.
_NO_ENTRY = (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP)


class ResponseCache:
    """Disk cache of raw provider responses, one JSON file per cache key."""

    def __init__(self, cache_dir: str | Path):
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._prefix = os.path.join(self.cache_dir, "")

    def _path(self, key: str) -> str:
        return f"{self._prefix}{key}.json"

    def get(self, key: str) -> str | None:
        try:
            with open(self._path(key), "rb") as fh:
                response = parse_json(fh.read())["response"]
            if not isinstance(response, str):
                raise TypeError("response is not a string")
        except (OSError, *DECODE_ERRORS) as exc:
            if not (isinstance(exc, OSError) and exc.errno in _NO_ENTRY):
                logger.warning("cache entry %s is corrupt; refetching", key)
            return None
        return response

    def put(self, key: str, response: str) -> None:
        with open(self._path(key), "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"response": response}, ensure_ascii=False))


def _normalize_ws(text: str) -> str:
    return " ".join(text.split())


def _verbatim_flags(sentences: Iterable[str], haystack: str, tag: str) -> list[str]:
    """A flag per sentence not found in haystack, the body as _normalize_ws left it."""
    return [
        f"{tag}:not_verbatim"
        for s in sentences
        if _normalize_ws(s) not in haystack
    ]


def _call(
    provider: ChatProvider, cache: ResponseCache | None, key: str, template_id: str, body: str
) -> str | ProviderCallError:
    """The provider's response to the body's rendered prompt, cached as it
    arrives, or the call's permanent failure; an unreachable endpoint
    raises. A response that no writer can encode (it holds an unpaired
    surrogate) is such a failure."""
    try:
        response = provider.complete(prompts.render_prompt(template_id, body), template_id)
    except ProviderCallError as exc:
        return exc
    if not response.isascii():  # the common case skips the encode
        try:
            response.encode("utf-8")
        except UnicodeEncodeError:
            return ProviderCallError("response holds an unpaired surrogate")
    if cache is not None:
        cache.put(key, response)
    return response


# Template id -> (parser, the Annotation fields its value fills, name in
# log lines). A one-field pass's value is that field; a multi-field pass's
# value is keyed by field.
PASSES: dict[str, tuple[Callable[[str], parsing.ParsedTag], tuple[str, ...], str]] = {
    prompts.CLAIM: (parsing.parse_claim_response, ("claim",), "claim"),
    prompts.WHAT_WHY: (parsing.parse_what_why_response, ("what", "why"), "what/why"),
    prompts.ENTITIES: (parsing.parse_entities_response, ("entities",), "entity"),
}


def _annotation(
    article: Article, raws: Iterable[tuple[str, str | ProviderCallError]]
) -> Annotation:
    """The article's Annotation from each pass's raw response, in pass order.

    A pass is a provider error, unparseable (its value cannot be parsed or
    holds an unpaired surrogate), or its fields' values; these are recorded,
    not raised. Each sentence not found in the body is flagged
    <tag>:not_verbatim."""
    values: dict[str, Any] = {}
    failed: list[str] = []
    flags: list[str] = []
    haystack = _normalize_ws(article.body)
    for template_id, raw in raws:
        parser, fields, name = PASSES[template_id]
        if isinstance(raw, ProviderCallError):
            logger.warning("%s call failed for %s: %s", name, article.id, raw)
            flags.append(f"{template_id}:provider_error")
            failed.extend(fields)
            continue
        parsed = parser(raw)
        if not parsed.failed and not encodable((parsed.value, parsed.flags), raw):
            parsed = parsing.ParsedTag(failed=True, flags=[f"{template_id}:unparseable"])
        flags.extend(parsed.flags)
        if parsed.failed:
            logger.warning("unparseable %s response for %s: %r", name, article.id, raw[:200])
            failed.extend(fields)
            continue
        for tag in fields:
            value = parsed.value if len(fields) == 1 else parsed.value[tag]
            if tag in SENTENCE_TAGS:
                value = tuple(value)
                flags.extend(_verbatim_flags(value, haystack, tag))
            values[tag] = value
    return Annotation(
        article_id=article.id, failed_tags=tuple(failed), flags=tuple(flags), **values
    )


def annotate_corpus(
    corpus: Corpus,
    provider: ChatProvider,
    config: ProviderConfig | None = None,
) -> dict[str, Annotation]:
    """Annotate every article; deterministic given the cache or a mock.

    One pass in corpus order: each (article, template) prompt is rendered
    and its cache entry read at most once, and a miss is sent as soon as
    it is found, each response cached as it arrives. A provider that
    declares ``workers`` gets a pool of that many threads, none started
    before the first miss; others are called inline, one at a time. A key
    asked for while its request is in flight joins it; an answer is reused
    only through the cache, so one that no cache holds (a per-call
    failure, or any answer without a cache) is sent again. No table of
    answers is kept: an article is parsed as soon as its three responses
    are in hand; the result keeps corpus order. A per-call failure marks
    only that tag failed. An unreachable provider aborts the run where its
    error is raised, so no later article is looked up; requests already in
    flight finish (and are cached), and those still queued are cancelled.
    """
    cache = None
    if config is not None and config.cache_dir is not None:
        cache = ResponseCache(config.cache_dir)
    workers = getattr(provider, "workers", 1)
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    # Cache key of each request in flight -> its Future and (article, its raw
    # responses, the slot the request fills) for every article waiting on it.
    in_flight: dict[str, tuple[Future, list[tuple[Article, list, int]]]] = {}
    finished: SimpleQueue[str] = SimpleQueue()  # keys whose requests are done
    annotations: dict[str, Annotation | None] = {}  # None while waiting

    def send(key: str, template_id: str, body: str) -> str | ProviderCallError | Future:
        if pool is None:
            return _call(provider, cache, key, template_id, body)
        future = pool.submit(_call, provider, cache, key, template_id, body)
        in_flight[key] = (future, [])
        future.add_done_callback(lambda _: finished.put(key))
        return future

    def settle(article: Article, raws: list) -> None:
        """Parse the article unless one of its requests is still in flight."""
        done = not any(isinstance(raw, Future) for raw in raws)
        annotations[article.id] = (
            _annotation(article, zip(prompts.TEMPLATE_IDS, raws)) if done else None
        )

    def collect(key: str) -> None:
        """Give a finished request's result to the articles waiting on it."""
        result = in_flight[key][0].result()
        for article, raws, slot in in_flight.pop(key)[1]:
            raws[slot] = result
            settle(article, raws)

    try:
        for article in corpus:
            while not finished.empty():
                collect(finished.get())
            raws: list = []
            for template_id in prompts.TEMPLATE_IDS:
                prompt = prompts.render_prompt(template_id, article.body)
                key = cache_key(template_id, prompt, provider.model_name)
                if key in in_flight:  # never read: its request may be writing it
                    raw = in_flight[key][0]
                else:
                    raw = cache.get(key) if cache is not None else None
                    if raw is None:
                        raw = send(key, template_id, article.body)
                if isinstance(raw, Future):
                    in_flight[key][1].append((article, raws, len(raws)))
                raws.append(raw)
            settle(article, raws)
        while in_flight:
            collect(finished.get())
    except ProviderUnreachableError:
        logger.error(
            "provider unreachable with %d requests in flight; aborting, "
            "completed responses stay cached",
            len(in_flight),
        )
        raise
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)  # in-flight requests finish
    return annotations


def save_annotations(annotations: Mapping[str, Annotation], path: str | Path) -> None:
    """annotations.jsonl, one row per article in id order. An annotation
    whose entities load_annotations would refuse is ``<path>: cannot write
    <id> (TypeError: ...)``, and the file is left as it was."""

    def lines() -> Iterator[str]:
        for article_id in sorted(annotations):
            row = annotations[article_id].to_json_dict()
            with reading(path, f"cannot write {article_id!r}"):
                _check_entities(row["entities"])
            yield json.dumps(row, ensure_ascii=False) + "\n"

    write_output(path, lines())


def load_annotations(path: str | Path) -> dict[str, Annotation]:
    """Load annotations.jsonl; a line that is not a row, or repeats an
    earlier row's article id, is a ValueError naming the file and the line."""
    out: dict[str, Annotation] = {}

    def read(raw: Any) -> None:
        ann = Annotation.from_json_dict(raw)
        if ann.article_id in out:
            raise ValueError(f"duplicate article_id {ann.article_id!r}")
        out[ann.article_id] = ann

    read_json_lines(path, read)
    return out
