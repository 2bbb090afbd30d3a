"""Tag embeddings: sentence vectors pooled into one unit vector per tag.

Aggregation is mean pooling followed by L2 normalization. A tag with no
usable sentences (or a zero or non-finite mean vector) is stored as absent
rather than as a zero-vector sentinel, so similarity never sees degenerate
inputs.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .annotation import SENTENCE_TAGS, Annotation
from .providers import EmbeddingProvider, ProviderCallError

logger = logging.getLogger(__name__)

_BATCH_SIZE = 128


@dataclass(frozen=True)
class TagEmbedding:
    article_id: str
    tag: str
    vector: np.ndarray | None
    n_sentences: int

    @property
    def absent(self) -> bool:
        return self.vector is None


def embed_sentences(
    sentences: Sequence[str], provider: EmbeddingProvider
) -> np.ndarray:
    """One vector per sentence, all of the provider-declared dimension."""
    if any(not isinstance(s, str) or not s for s in sentences):
        raise ValueError("sentences must be non-empty strings")
    if not sentences:
        return np.zeros((0, provider.dim), dtype=np.float64)
    chunks = []
    for start in range(0, len(sentences), _BATCH_SIZE):
        batch = sentences[start : start + _BATCH_SIZE]
        vectors = np.asarray(provider.embed(batch), dtype=np.float64)
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


def embed_annotations(
    annotations: Mapping[str, Annotation], provider: EmbeddingProvider
) -> dict[tuple[str, str], TagEmbedding]:
    """Aggregated unit vector per (article, tag); failed tags stay absent.

    A failed embedding batch discards its partial results and marks the
    affected tags absent; an unreachable provider aborts the run.
    """
    out: dict[tuple[str, str], TagEmbedding] = {}
    pending: list[tuple[str, str, list[str]]] = []
    for article_id in sorted(annotations):
        ann = annotations[article_id]
        for tag in SENTENCE_TAGS:
            if tag in ann.failed_tags:
                out[(article_id, tag)] = TagEmbedding(article_id, tag, None, 0)
                continue
            sentences = [s for s in ann.sentences(tag) if s.strip()]
            if not sentences:
                out[(article_id, tag)] = TagEmbedding(article_id, tag, None, 0)
                continue
            pending.append((article_id, tag, sentences))

    for article_id, tag, sentences in pending:
        try:
            vectors = embed_sentences(sentences, provider)
        except ProviderCallError as exc:
            logger.warning("embedding failed for (%s, %s): %s", article_id, tag, exc)
            out[(article_id, tag)] = TagEmbedding(article_id, tag, None, 0)
            continue
        pooled = aggregate_tag(vectors)
        n = len(sentences) if pooled is not None else 0
        out[(article_id, tag)] = TagEmbedding(article_id, tag, pooled, n)
    return out


def save_embeddings(
    embeddings: Mapping[tuple[str, str], TagEmbedding],
    path: str | Path,
    dim: int,
    provider_name: str = "",
) -> None:
    """JSON-lines sidecar: a dimension header, then one row per (article, tag)."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"kind": "header", "dim": dim, "provider": provider_name}) + "\n")
        for key in sorted(embeddings):
            emb = embeddings[key]
            fh.write(
                json.dumps(
                    {
                        "article_id": emb.article_id,
                        "tag": emb.tag,
                        "n_sentences": emb.n_sentences,
                        "vector": None if emb.vector is None else emb.vector.tolist(),
                    }
                )
                + "\n"
            )


def load_embeddings(path: str | Path) -> tuple[dict[tuple[str, str], TagEmbedding], int]:
    """Load a sidecar; validates the dimension header against every row."""
    embeddings: dict[tuple[str, str], TagEmbedding] = {}
    with Path(path).open("r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if header.get("kind") != "header" or "dim" not in header:
            raise ValueError("embedding sidecar is missing its dimension header")
        dim = int(header["dim"])
        for line in fh:
            if not line.strip():
                continue
            raw = json.loads(line)
            vector = raw["vector"]
            if vector is not None:
                vector = np.asarray(vector, dtype=np.float64)
                if vector.shape != (dim,):
                    raise ValueError(
                        f"row ({raw['article_id']}, {raw['tag']}) has dimension "
                        f"{vector.shape[0]}, header says {dim}"
                    )
            emb = TagEmbedding(raw["article_id"], raw["tag"], vector, int(raw["n_sentences"]))
            embeddings[(emb.article_id, emb.tag)] = emb
    return embeddings, dim
