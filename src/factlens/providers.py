"""Chat-completion and sentence-embedding providers.

Live providers speak a minimal HTTP contract:

* chat: POST ``{model, messages: [{role, content}]}``, response text read
  from the first choice's message content;
* embeddings: POST ``{texts: [...]}`` -> ``{vectors: [[...], ...]}``.

Offline work uses deterministic mocks: a fixture directory keyed by cache
key, a synthetic chat provider that is a pure function of the rendered
prompt, and a hashed bag-of-words embedder documented bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np
import requests

from . import prompts
from .seeds import derive_seed

logger = logging.getLogger(__name__)


class ProviderError(Exception):
    pass


class ProviderCallError(ProviderError):
    """One request failed permanently; the affected tag is marked failed."""


class ProviderUnreachableError(ProviderError):
    """The endpoint is down; the whole run aborts (cache is preserved)."""


@dataclass(frozen=True)
class ProviderConfig:
    endpoint: str = ""
    model_name: str = "gpt-3.5-turbo"
    max_retries: int = 3
    rate_limit: float = 5.0
    cache_dir: Path | None = None
    retry_base_seconds: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.rate_limit <= 0:
            raise ValueError("rate_limit must be > 0")


def cache_key(template_id: str, prompt: str, model_name: str) -> str:
    """Stable cache key: SHA-256 over (template id, rendered prompt, model)."""
    payload = f"{template_id}\n{model_name}\n{prompt}".encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


class ChatProvider(Protocol):
    model_name: str

    def complete(self, prompt: str, template_id: str) -> str: ...


class HttpChatProvider:
    """Chat-completion client with retries, backoff, and rate limiting.

    Backoff jitter is drawn from a generator derived from the run seed so
    retry schedules reproduce in tests.
    """

    def __init__(self, config: ProviderConfig, api_key: str | None = None, seed: int = 0):
        if not config.endpoint:
            raise ValueError("HTTP chat provider needs an endpoint")
        self.config = config
        self.model_name = config.model_name
        self.api_key = api_key
        self._rng = np.random.default_rng(derive_seed(seed, "chat-retry-jitter"))
        self._min_interval = 1.0 / config.rate_limit
        self._last_call = 0.0
        self.calls = 0

    def _throttle(self) -> None:
        wait = self._last_call + self._min_interval - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        self._last_call = time.monotonic()

    def _backoff(self, attempt: int) -> float:
        base = self.config.retry_base_seconds * (2**attempt)
        return base + float(self._rng.uniform(0.0, base / 2.0))

    def complete(self, prompt: str, template_id: str) -> str:
        del template_id  # wire contract carries only the messages
        headers = {}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        body = {
            "model": self.model_name,
            "messages": [{"role": "user", "content": prompt}],
        }
        last_error: Exception | None = None
        unreachable = False
        for attempt in range(self.config.max_retries + 1):
            self._throttle()
            self.calls += 1
            try:
                resp = requests.post(
                    self.config.endpoint, json=body, headers=headers, timeout=60
                )
            except requests.exceptions.RequestException as exc:
                last_error, unreachable = exc, True
            else:
                if resp.status_code == 200:
                    try:
                        content = resp.json()["choices"][0]["message"]["content"]
                    except (ValueError, KeyError, IndexError, TypeError) as exc:
                        raise ProviderCallError(f"malformed response body: {exc}") from exc
                    if not isinstance(content, str):
                        raise ProviderCallError(
                            f"malformed response body: content is {type(content).__name__}"
                        )
                    return content
                if resp.status_code == 429 or resp.status_code >= 500:
                    last_error, unreachable = (
                        ProviderCallError(f"HTTP {resp.status_code}"),
                        False,
                    )
                else:
                    raise ProviderCallError(f"HTTP {resp.status_code}: {resp.text[:200]}")
            if attempt < self.config.max_retries:
                delay = self._backoff(attempt)
                logger.warning("chat call failed (%s); retrying in %.2fs", last_error, delay)
                time.sleep(delay)
        if unreachable:
            raise ProviderUnreachableError(f"endpoint unreachable: {last_error}")
        raise ProviderCallError(f"failed after retries: {last_error}")


class FixtureChatProvider:
    """Replays responses from a directory of fixture files keyed by cache key.

    A request whose key has no ``<key>.txt`` file fails like a permanent
    provider error.
    """

    def __init__(self, fixtures_dir: str | Path, model_name: str = "mock-fixtures"):
        self.fixtures_dir = Path(fixtures_dir)
        self.model_name = model_name
        self.calls = 0

    def fixture_path(self, prompt: str, template_id: str) -> Path:
        return self.fixtures_dir / f"{cache_key(template_id, prompt, self.model_name)}.txt"

    def complete(self, prompt: str, template_id: str) -> str:
        self.calls += 1
        path = self.fixture_path(prompt, template_id)
        if not path.exists():
            raise ProviderCallError(f"no fixture for key {path.stem}")
        return path.read_text(encoding="utf-8")


def write_fixture(
    fixtures_dir: str | Path,
    template_id: str,
    post: str,
    response: str,
    model_name: str = "mock-fixtures",
) -> Path:
    """Store a fixture response for the prompt rendered from ``post``."""
    prompt = prompts.render_prompt(template_id, post)
    path = Path(fixtures_dir) / f"{cache_key(template_id, prompt, model_name)}.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(response, encoding="utf-8")
    return path


_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+")
_CAP_RUN_RE = re.compile(r"\b[A-Z][A-Za-z'’]*(?:\s+[A-Z][A-Za-z'’]*)*")
_GENERIC_WORDS = {
    "The", "A", "An", "It", "This", "That", "He", "She", "They", "We", "I",
    "In", "On", "At", "But", "And", "However", "Meanwhile", "Critics",
    "Supporters", "Officials", "Fact", "News", "According",
}
_NEGATIVE_CUES = ("slammed", "criticized", "accused", "mocked", "blasted", "condemned")
_POSITIVE_CUES = ("praised", "lauded", "credited", "applauded", "celebrated")


def split_sentences(text: str) -> list[str]:
    return [s for s in _SENTENCE_RE.split(text.strip()) if s.strip()]


class SyntheticChatProvider:
    """Deterministic offline annotator: a pure function of the prompt.

    Claim and what come from the first sentence of the article, why from
    the first "because" sentence (else the last). Entities are maximal
    capitalized word runs minus generic words; the sentiment of each is
    negative or positive when its sentence carries a cue verb, neutral
    otherwise.
    """

    def __init__(self, model_name: str = "mock-synthetic"):
        self.model_name = model_name
        self.calls = 0

    def complete(self, prompt: str, template_id: str) -> str:
        self.calls += 1
        post = prompts.extract_post(template_id, prompt)
        sentences = split_sentences(post)
        if template_id == prompts.CLAIM:
            return json.dumps(sentences[:1], ensure_ascii=False)
        if template_id == prompts.WHAT_WHY:
            why = [s for s in sentences if "because" in s.lower()]
            if not why and sentences:
                why = [sentences[-1]]
            return json.dumps(
                {"what": sentences[:1], "why": why[:1]}, ensure_ascii=False
            )
        if template_id == prompts.ENTITIES:
            return json.dumps(self._entities(sentences), ensure_ascii=False)
        raise ProviderCallError(f"unknown template id {template_id!r}")

    @staticmethod
    def _entities(sentences: list[str]) -> dict[str, str]:
        tags: dict[str, str] = {}
        for sentence in sentences:
            lowered = sentence.lower()
            if any(cue in lowered for cue in _NEGATIVE_CUES):
                label = "negative"
            elif any(cue in lowered for cue in _POSITIVE_CUES):
                label = "positive"
            else:
                label = "neutral"
            for run in _CAP_RUN_RE.findall(sentence):
                words = [w for w in run.split() if w not in _GENERIC_WORDS]
                if not words:
                    continue
                name = " ".join(words)
                if len(name) < 3:
                    continue
                # First non-neutral mention wins; neutral never overrides.
                if name not in tags or (tags[name] == "neutral" and label != "neutral"):
                    tags[name] = label
        return tags


class EmbeddingProvider(Protocol):
    dim: int
    name: str

    def embed(self, texts: Sequence[str]) -> np.ndarray: ...


class HashedEmbeddingProvider:
    """Deterministic hashed bag-of-words embedder (the offline mock).

    Bit-exact definition: tokens are the matches of ``[a-z0-9']+`` on the
    lowercased text. Each token t adds +/-1 to one coordinate of a
    float64 zero vector of length ``dim``: with d = SHA-256(utf-8 bytes
    of t), the coordinate is the first 4 digest bytes as a big-endian
    integer mod dim, and the sign is + when the 5th byte is even. The
    vector is then L2-normalized; a token-free text stays the zero
    vector.
    """

    _TOKEN_RE = re.compile(r"[a-z0-9']+")

    def __init__(self, dim: int = 64):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.name = f"hashed-bow-{dim}"
        self.calls = 0

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        self.calls += 1
        out = np.zeros((len(texts), self.dim), dtype=np.float64)
        for row, text in enumerate(texts):
            for token in self._TOKEN_RE.findall(text.lower()):
                digest = hashlib.sha256(token.encode("utf-8")).digest()
                idx = int.from_bytes(digest[:4], "big") % self.dim
                out[row, idx] += 1.0 if digest[4] % 2 == 0 else -1.0
            norm = float(np.linalg.norm(out[row]))
            if norm > 0.0:
                out[row] /= norm
        return out


class HttpEmbeddingProvider:
    """Sentence-embedding client for the ``{texts} -> {vectors}`` contract.

    Failures follow HttpChatProvider's rules: 429, 5xx and a malformed 200
    body are retried and end in ProviderCallError (only this batch's tags
    fail), another 4xx fails at once, and a transport error on the last
    attempt raises ProviderUnreachableError, which aborts the run.
    """

    def __init__(
        self,
        endpoint: str,
        dim: int,
        max_retries: int = 3,
        retry_base_seconds: float = 0.5,
        seed: int = 0,
    ):
        if not endpoint:
            raise ValueError("HTTP embedding provider needs an endpoint")
        self.endpoint = endpoint
        self.dim = dim
        self.name = f"http:{endpoint}"
        self.max_retries = max_retries
        self.retry_base_seconds = retry_base_seconds
        self._rng = np.random.default_rng(derive_seed(seed, "embed-retry-jitter"))
        self.calls = 0

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        last_error: Exception | None = None
        unreachable = False
        for attempt in range(self.max_retries + 1):
            self.calls += 1
            try:
                resp = requests.post(self.endpoint, json={"texts": list(texts)}, timeout=120)
            except requests.exceptions.RequestException as exc:
                last_error, unreachable = exc, True
            else:
                if resp.status_code == 200:
                    try:
                        vectors = np.asarray(resp.json()["vectors"], dtype=np.float64)
                    except (ValueError, KeyError, TypeError) as exc:
                        last_error, unreachable = (
                            ProviderCallError(f"malformed response body: {exc}"),
                            False,
                        )
                    else:
                        if vectors.shape != (len(texts), self.dim):
                            raise ProviderCallError(
                                f"expected shape {(len(texts), self.dim)}, got {vectors.shape}"
                            )
                        return vectors
                elif resp.status_code == 429 or resp.status_code >= 500:
                    last_error, unreachable = ProviderCallError(f"HTTP {resp.status_code}"), False
                else:
                    raise ProviderCallError(f"HTTP {resp.status_code}: {resp.text[:200]}")
            if attempt < self.max_retries:
                base = self.retry_base_seconds * (2**attempt)
                time.sleep(base + float(self._rng.uniform(0.0, base / 2.0)))
        if unreachable:
            raise ProviderUnreachableError(f"embedding endpoint unreachable: {last_error}")
        raise ProviderCallError(f"embedding batch failed after retries: {last_error}")
