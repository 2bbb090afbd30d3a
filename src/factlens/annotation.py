"""Per-article annotation: three prompt passes with caching and repair.

Each article yields claim sentences, what/why sentences, and an
entity -> sentiment map. Raw responses are cached byte-equal on disk
keyed by (template id, rendered prompt, model) and re-parsed on read, so
a warm run never touches the provider and parses identically.
"""

from __future__ import annotations

import errno
import json
import logging
import os
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from . import parsing, prompts
from .corpus import Article, Corpus
from .providers import (
    ChatProvider,
    ProviderCallError,
    ProviderConfig,
    ProviderUnreachableError,
    cache_key,
)
from .report import DECODE_ERRORS, encodable, read_json_lines, write_output

logger = logging.getLogger(__name__)

SENTENCE_TAGS = ("claim", "what", "why")


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
        if not isinstance(entities, dict) or not all(isinstance(v, str) for v in entities.values()):
            raise TypeError("entities: expected an object of strings")
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
                raw = fh.read()
            # Decoded as UTF-8 first: json.loads would accept UTF-16 bytes.
            text = raw.decode("utf-8")
            response = json.loads(text)["response"]
            if not encodable(response, text):
                raise ValueError("unpaired surrogate")
        except (OSError, *DECODE_ERRORS) as exc:
            if not (isinstance(exc, OSError) and exc.errno in _NO_ENTRY):
                logger.warning("cache entry %s is corrupt; refetching", key)
            return None
        return response if isinstance(response, str) else None

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


def _call_all(
    misses: Mapping[str, tuple[str, str]],
    provider: ChatProvider,
    cache: ResponseCache | None,
) -> dict[str, str | ProviderCallError]:
    """_call for each cache key -> (template id, article body).

    A provider that declares ``workers`` > 1 gets that many requests in
    flight at once; others are called one at a time, in order. An
    unreachable endpoint cancels the requests not yet sent, lets those in
    flight finish (and be cached), and raises.
    """
    width = min(getattr(provider, "workers", 1), len(misses))
    if width <= 1:
        return {key: _call(provider, cache, key, *req) for key, req in misses.items()}
    pool = ThreadPoolExecutor(max_workers=width)
    try:
        futures = {
            key: pool.submit(_call, provider, cache, key, *req) for key, req in misses.items()
        }
        wait(futures.values(), return_when=FIRST_EXCEPTION)
    finally:
        pool.shutdown(cancel_futures=True)
    # Requests start in submission order, so a raised error comes before
    # any cancelled request and result() re-raises it first.
    return {key: future.result() for key, future in futures.items()}


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

    Three phases: each (article, template) prompt is rendered and its
    cache entry read once; the misses go to the provider (concurrently
    when it declares ``workers``), each prompt rendered again as it is
    sent, so no table of prompts is held, and each response cached as it
    arrives; then annotations are parsed and assembled in corpus order.
    A per-call failure marks only that tag failed; an unreachable
    provider aborts the run with all completed cache entries preserved.
    """
    cache = None
    if config is not None and config.cache_dir is not None:
        cache = ResponseCache(config.cache_dir)
    article_keys: list[list[str]] = []
    responses: dict[str, str | ProviderCallError] = {}
    misses: dict[str, tuple[str, str]] = {}
    for article in corpus:
        keys = []
        for template_id in prompts.TEMPLATE_IDS:
            prompt = prompts.render_prompt(template_id, article.body)
            key = cache_key(template_id, prompt, provider.model_name)
            cached = cache.get(key) if cache is not None else None
            if cached is not None:
                responses[key] = cached
            else:
                misses.setdefault(key, (template_id, article.body))
            keys.append(key)
        article_keys.append(keys)
    try:
        responses.update(_call_all(misses, provider, cache))
    except ProviderUnreachableError:
        logger.error(
            "provider unreachable with %d uncached requests; aborting, "
            "completed responses stay cached",
            len(misses),
        )
        raise
    return {
        article.id: _annotation(
            article, [(t, responses[key]) for t, key in zip(prompts.TEMPLATE_IDS, keys)]
        )
        for article, keys in zip(corpus, article_keys)
    }


def save_annotations(annotations: Mapping[str, Annotation], path: str | Path) -> None:
    write_output(path, (
        json.dumps(annotations[article_id].to_json_dict(), ensure_ascii=False) + "\n"
        for article_id in sorted(annotations)
    ))


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
