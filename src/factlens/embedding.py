"""Tag embeddings: sentence vectors pooled into one unit vector per tag.

Aggregation is mean pooling followed by L2 normalization. A tag with no
usable sentences (or a zero or non-finite mean vector) is stored as absent
rather than as a zero-vector sentinel, so similarity never sees degenerate
inputs.
"""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .annotation import SENTENCE_TAGS, Annotation
from .config import MAX_EMBEDDING_DIM
from .providers import EmbeddingProvider, ProviderCallError, ProviderUnreachableError
from .report import read_json_lines, reading, write_output

logger = logging.getLogger(__name__)

_BATCH_SIZE = 128


@dataclass(frozen=True, slots=True)
class TagEmbedding:
    article_id: str
    tag: str
    vector: np.ndarray | None
    n_sentences: int

    @property
    def absent(self) -> bool:
        return self.vector is None


def embed_sentences(
    sentences: Sequence[str], provider: EmbeddingProvider, retries: int | None = None
) -> np.ndarray:
    """One vector per sentence, all of the provider-declared dimension;
    each request is sent with the given retries."""
    if any(not isinstance(s, str) or not s for s in sentences):
        raise ValueError("sentences must be non-empty strings")
    if not sentences:
        return np.zeros((0, provider.dim), dtype=np.float64)
    chunks = []
    for start in range(0, len(sentences), _BATCH_SIZE):
        batch = sentences[start : start + _BATCH_SIZE]
        vectors = np.asarray(provider.embed(batch, retries), dtype=np.float64)
        if vectors.shape != (len(batch), provider.dim):
            raise ProviderCallError(
                f"provider returned shape {vectors.shape}, expected {(len(batch), provider.dim)}"
            )
        chunks.append(vectors)
    return np.concatenate(chunks, axis=0)


def aggregate_tag(sentence_vectors: Sequence[np.ndarray] | np.ndarray) -> np.ndarray | None:
    """Mean of the vectors, L2-normalized; None when absent or degenerate
    (zero, NaN or infinite mean or norm)."""
    arr = np.asarray(sentence_vectors, dtype=np.float64)
    if arr.size == 0:
        return None
    if arr.ndim != 2:
        raise ValueError("expected a list of equal-dimension vectors")
    mean = arr.mean(axis=0)
    norm = float(np.linalg.norm(mean))
    if norm == 0.0:
        logger.info("zero mean vector; tag embedding marked absent")
        return None
    if not np.isfinite(norm):
        logger.warning("non-finite mean vector; tag embedding marked absent")
        return None
    return mean / norm


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Dot product of unit vectors, clamped to [-1, 1]."""
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return min(1.0, max(-1.0, float(np.dot(u, v))))


_Group = tuple[list[tuple[str, str]], tuple[str, ...]]  # (article, tag) rows, their sentences


def _embed_groups(
    groups: Sequence[_Group],
    provider: EmbeddingProvider,
    out: dict[tuple[str, str], TagEmbedding],
    retries: int | None = None,
) -> None:
    """Embed the groups' sentences in one request and pool each group from
    its own rows; every (article, tag) of a group gets the one read-only
    pooled array. A failed request is split in half until the failing
    group is alone; only its rows are stored as absent.

    The undivided request and an isolated group are retried as the
    provider's policy says; the levels in between are sent with retries=0,
    so one failing text pays the backoff of two requests, not of every
    level. A transport error at such a level sends it again under the
    provider's policy, which alone decides the endpoint is down."""
    texts = [s for _, sentences in groups for s in sentences]
    try:
        vectors = embed_sentences(texts, provider, retries)
    except ProviderUnreachableError:
        if retries is None:
            raise
        _embed_groups(groups, provider, out)
        return
    except ProviderCallError as exc:
        if len(groups) > 1:
            mid = len(groups) // 2
            for half in (groups[:mid], groups[mid:]):
                _embed_groups(half, provider, out, None if len(half) == 1 else 0)
            return
        keys, _ = groups[0]
        logger.warning(
            "embedding failed for (%s, %s), first of %d row(s) with these sentences: %s",
            *keys[0], len(keys), exc,
        )
        for article_id, tag in keys:
            out[(article_id, tag)] = TagEmbedding(article_id, tag, None, 0)
        return
    row = 0
    for keys, sentences in groups:
        pooled = aggregate_tag(vectors[row : row + len(sentences)])
        row += len(sentences)
        n = len(sentences) if pooled is not None else 0
        if pooled is not None:
            pooled.flags.writeable = False  # shared by every row of the group
        for article_id, tag in keys:
            out[(article_id, tag)] = TagEmbedding(article_id, tag, pooled, n)


def embed_annotations(
    annotations: Mapping[str, Annotation], provider: EmbeddingProvider
) -> dict[tuple[str, str], TagEmbedding]:
    """Aggregated unit vector per (article, tag); failed tags stay absent.

    The (article, tag) rows with equal sentence lists form one group,
    embedded and pooled once; its rows share the one read-only vector.
    Sentences of many groups share a request of up to _BATCH_SIZE texts;
    a group with more sentences gets requests of its own. A vector is
    taken to depend on its text alone, so each tag's vector does not
    depend on what else was in its request. A failed group's rows are
    stored as absent; an unreachable provider aborts the run.
    """
    out: dict[tuple[str, str], TagEmbedding] = {}
    groups: dict[tuple[str, ...], list[tuple[str, str]]] = {}
    for article_id in sorted(annotations):
        ann = annotations[article_id]
        for tag in SENTENCE_TAGS:
            sentences = tuple(s for s in ann.sentences(tag) if s.strip())
            if tag in ann.failed_tags or not sentences:
                out[(article_id, tag)] = TagEmbedding(article_id, tag, None, 0)
            else:
                groups.setdefault(sentences, []).append((article_id, tag))
    batches: list[list[_Group]] = []
    size = _BATCH_SIZE
    for sentences, keys in groups.items():
        if size + len(sentences) > _BATCH_SIZE:
            batches.append([])
            size = 0
        batches[-1].append((keys, sentences))
        size += len(sentences)
    for batch in batches:
        _embed_groups(batch, provider, out)
    return out


def save_embeddings(
    embeddings: Mapping[tuple[str, str], TagEmbedding],
    path: str | Path,
    dim: int,
    provider_name: str = "",
) -> None:
    """JSON-lines vector table: a dimension header, then one row per
    (article, tag) in key order, each line the json.dumps of its fields.
    Each distinct vector array is one vector line, numbered 0, 1, ... and
    written just before the first row that names it by number (a row's
    vector is null when absent); an equal copy is a vector of its own."""
    # id(vector) -> (its number, the vector); holding the vector keeps its id unique.
    numbers: dict[int, tuple[int, np.ndarray]] = {}

    def lines(emb: TagEmbedding) -> Iterator[str]:
        if emb.vector is not None and id(emb.vector) not in numbers:
            numbers[id(emb.vector)] = (len(numbers), emb.vector)
            line = {"kind": "vector", "number": len(numbers) - 1, "vector": emb.vector.tolist()}
            yield json.dumps(line) + "\n"
        number = None if emb.vector is None else numbers[id(emb.vector)][0]
        row = {"article_id": emb.article_id, "tag": emb.tag, "n_sentences": emb.n_sentences}
        yield json.dumps({**row, "vector": number}) + "\n"

    header = json.dumps({"kind": "header", "dim": dim, "provider": provider_name}) + "\n"
    rows = itertools.chain.from_iterable(lines(embeddings[key]) for key in sorted(embeddings))
    write_output(path, itertools.chain([header], rows))


def _integer(value: object, key: str) -> int:
    if type(value) is not int:
        raise TypeError(f"{key}: expected an integer")
    return value


def load_embeddings(path: str | Path) -> tuple[dict[tuple[str, str], TagEmbedding], int]:
    """Load a sidecar; validates the dimension header (its first line)
    against every vector. Rows that name one vector share its one read-only
    array. A line that is not a row or a vector (a mistyped field, a
    dimension outside [1, MAX_EMBEDDING_DIM] or not the header's, a
    non-finite vector, a number out of sequence or not yet defined, a
    repeated (article, tag)) is a ValueError naming its line."""
    dims: list[int] = []  # the header's dimension, once its line is read
    vectors: list[np.ndarray] = []  # the vector lines read so far, by number
    out: dict[tuple[str, str], TagEmbedding] = {}

    def read(raw: dict) -> None:
        if not dims:
            if raw.get("kind") != "header" or "dim" not in raw:
                raise ValueError("embedding sidecar is missing its dimension header")
            dims.append(_integer(raw["dim"], "dim"))
            if not 1 <= dims[0] <= MAX_EMBEDDING_DIM:
                raise ValueError(f"dim: must be in [1, {MAX_EMBEDDING_DIM}]")
        elif raw.get("kind") == "vector":
            if _integer(raw["number"], "number") != len(vectors):
                raise ValueError(f"vector number {raw['number']}, expected {len(vectors)}")
            vector = np.asarray(raw["vector"], dtype=np.float64)
            if vector.shape != (dims[0],) or not np.isfinite(vector).all():
                raise ValueError(f"vector {len(vectors)} is not {dims[0]} finite numbers")
            vector.flags.writeable = False  # shared by every row that names it
            vectors.append(vector)
        else:
            article_id, tag, number = raw["article_id"], raw["tag"], raw["vector"]
            if not isinstance(article_id, str) or not isinstance(tag, str):
                raise TypeError("article_id, tag: expected strings")
            if isinstance(number, list):
                raise ValueError("vector inside the row: an old sidecar; re-run factlens embed")
            if number is not None and not 0 <= _integer(number, "vector") < len(vectors):
                raise ValueError(f"row ({article_id}, {tag}) names vector {number}, not yet defined")
            if (article_id, tag) in out:
                raise ValueError(f"duplicate row ({article_id}, {tag})")
            vector = None if number is None else vectors[number]
            n_sentences = _integer(raw["n_sentences"], "n_sentences")
            out[(article_id, tag)] = TagEmbedding(article_id, tag, vector, n_sentences)

    read_json_lines(path, read)
    with reading(path, "not a valid row", 1):
        if not dims:  # an empty file
            raise ValueError("embedding sidecar is missing its dimension header")
    return out, dims[0]
