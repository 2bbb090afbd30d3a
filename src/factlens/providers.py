"""Chat-completion and sentence-embedding providers.

Live providers speak a minimal HTTP contract:

* chat: POST ``{model, messages: [{role, content}]}``, response text read
  from the first choice's message content;
* embeddings: POST ``{texts: [...]}`` -> ``{vectors: [[...], ...]}``.

Both go through ``_post``, the standard library's urllib: http(s) only,
one connection per request, proxies from the environment, redirects not
followed. A 200 body is read as strict UTF-8.

Offline work uses deterministic mocks: a fixture directory keyed by cache
key, a synthetic chat provider that is a pure function of the rendered
prompt, and a hashed bag-of-words embedder documented bit-exactly.
"""

from __future__ import annotations

import functools
import hashlib
import http.client
import json
import logging
import re
import ssl
import threading
import time
import urllib.request
from pathlib import Path
from typing import Any, Callable, Protocol, Sequence

import numpy as np

from . import prompts
from .config import ProviderConfig, http_url
from .report import DECODE_ERRORS, encodable, reading, write_output
from .seeds import derive_seed

logger = logging.getLogger(__name__)


class ProviderError(Exception):
    pass


class ProviderCallError(ProviderError):
    """One request failed permanently; the affected tag is marked failed."""


class ProviderUnreachableError(ProviderError):
    """The endpoint is down; the whole run aborts (cache is preserved)."""


def cache_key(template_id: str, prompt: str, model_name: str) -> str:
    """Stable cache key: SHA-256 over (template id, rendered prompt, model)."""
    payload = f"{template_id}\n{model_name}\n{prompt}".encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


class ChatProvider(Protocol):
    model_name: str

    def complete(self, prompt: str, template_id: str) -> str: ...


# Chat requests an HTTP provider keeps in flight at once, all behind its
# one rate limiter; in-process providers are called one at a time.
CHAT_WORKERS = 8


class _RetryBody(ProviderCallError):
    """Raised by a parser for a 200 body that is worth asking for again."""


class _EveryStatus(urllib.request.HTTPErrorProcessor):
    """Hands every response back as it came: no status raises and no
    redirect is followed, so the retry policy sees each status."""

    def http_response(self, request, response):
        return response

    https_response = http_response


@functools.cache
def _opener(scheme: str) -> urllib.request.OpenerDirector:
    """The opener for one URL scheme, built at its first request. Proxies
    come from the environment; https verifies against the system trust
    store, which is loaded once because loading it takes tens of ms."""
    handlers: list = [_EveryStatus]
    if scheme == "https":
        handlers.append(urllib.request.HTTPSHandler(context=ssl.create_default_context()))
    return urllib.request.build_opener(*handlers)


def _post(url: str, body: dict, headers: dict[str, str], timeout: float) -> tuple[int, bytes]:
    """POST body as JSON on a connection of its own; the status and the raw
    response body. A transport failure raises OSError or HTTPException."""
    request = urllib.request.Request(
        url, data=json.dumps(body).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json", **headers},
    )
    # fullurl by name: the one-writer scan reads a positional .open argument
    # as a file mode.
    with _opener(request.type).open(fullurl=request, timeout=timeout) as response:
        return response.status, response.read()


class _HttpClient:
    """The one live-provider request policy, for chat and embeddings.

    Thread-safe: send slots are reserved under a lock, ``min_interval``
    apart, and counted in ``calls``. HTTP 429, 5xx and a 200 body whose
    parser raises _RetryBody are retried with backoff; another status (a 3xx
    or 4xx) or ProviderCallError fails at once; a transport error on the
    last attempt raises ProviderUnreachableError. Jitter is a function of
    the run seed, the request's key and the attempt, not of the other
    requests.
    """

    _kind = ""  # "chat" or "embed": names the jitter stream and the errors
    _timeout = 60

    def __init__(self, endpoint: str, max_retries: int, retry_base_seconds: float,
                 seed: int, min_interval: float = 0.0):
        if not http_url(endpoint):
            raise ValueError(f"HTTP {self._kind} provider needs an http:// or https:// "
                             f"endpoint, got {endpoint!r}")
        self.endpoint = endpoint
        self.max_retries = max_retries
        self.retry_base_seconds = retry_base_seconds
        self._seed = seed
        self._min_interval = min_interval
        self._lock = threading.Lock()
        self._next_slot = 0.0
        self.calls = 0

    def _throttle(self) -> None:
        """Reserve the next send slot and wait for it; counts the call."""
        with self._lock:
            slot = max(time.monotonic(), self._next_slot)
            self._next_slot = slot + self._min_interval
            self.calls += 1
        wait = slot - time.monotonic()
        if wait > 0:
            time.sleep(wait)

    def _backoff(self, key: str, attempt: int) -> float:
        base = self.retry_base_seconds * (2**attempt)
        rng = np.random.default_rng(derive_seed(self._seed, f"{self._kind}-retry:{key}:{attempt}"))
        return base + float(rng.uniform(0.0, base / 2.0))

    def _send(self, body: dict, key: str, parse: Callable[[bytes], Any],
              headers: dict[str, str] | None = None, retries: int | None = None) -> Any:
        """POST body until parse accepts a 200 response's raw body, sending it
        again at most retries times (default max_retries); key names the
        request."""
        retries = self.max_retries if retries is None else retries
        last_error: Exception | None = None
        unreachable = False
        for attempt in range(retries + 1):
            self._throttle()
            try:
                status, raw = _post(self.endpoint, body, headers or {}, self._timeout)
            except (OSError, http.client.HTTPException) as exc:
                last_error, unreachable = exc, True
            else:
                unreachable = False
                if status == 200:
                    try:
                        return parse(raw)
                    except _RetryBody as exc:
                        last_error = exc
                elif status == 429 or status >= 500:
                    last_error = ProviderCallError(f"HTTP {status}")
                else:
                    text = raw.decode("utf-8", errors="replace")
                    raise ProviderCallError(f"HTTP {status}: {text[:200]}")
            if attempt < retries:
                delay = self._backoff(key, attempt)
                logger.warning(
                    "%s call failed (%s); retrying in %.2fs", self._kind, last_error, delay
                )
                time.sleep(delay)
        if unreachable:
            raise ProviderUnreachableError(f"{self._kind} endpoint unreachable: {last_error}")
        raise ProviderCallError(f"{self._kind} request failed after retries: {last_error}")


def _chat_content(raw: bytes) -> str:
    try:
        text = raw.decode("utf-8")
        content = json.loads(text)["choices"][0]["message"]["content"]
    except (IndexError, *DECODE_ERRORS) as exc:
        raise ProviderCallError(f"malformed response body: {exc}") from exc
    if not isinstance(content, str):
        raise ProviderCallError(f"malformed response body: content is {type(content).__name__}")
    if not encodable(content, text):
        raise ProviderCallError("malformed response body: content holds an unpaired surrogate")
    return content


class HttpChatProvider(_HttpClient):
    """Chat client, ``1/rate_limit`` between sends; a malformed 200 body
    fails the call at once. Retry jitter is keyed by the cache key."""

    workers = CHAT_WORKERS
    _kind = "chat"

    def __init__(self, config: ProviderConfig, api_key: str | None = None, seed: int = 0):
        super().__init__(
            config.endpoint, config.max_retries, config.retry_base_seconds, seed,
            min_interval=1.0 / config.rate_limit,
        )
        self.model_name = config.model_name
        self.api_key = api_key

    def complete(self, prompt: str, template_id: str) -> str:
        # The wire contract carries only the messages; the template id only
        # keys the retry jitter.
        headers = {"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}
        body = {"model": self.model_name, "messages": [{"role": "user", "content": prompt}]}
        key = cache_key(template_id, prompt, self.model_name)
        return self._send(body, key, _chat_content, headers)


class FixtureChatProvider:
    """Replays responses from a directory of fixture files keyed by cache key.

    A request whose key has no ``<key>.txt`` file, or whose file is not
    UTF-8, fails like a permanent provider error.
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
        with reading(path, "not a fixture", error=ProviderCallError):
            return path.read_bytes().decode("utf-8")


def write_fixture(
    fixtures_dir: str | Path,
    template_id: str,
    post: str,
    response: str,
    model_name: str = "mock-fixtures",
) -> Path:
    """Store a fixture response for the prompt rendered from ``post``."""
    prompt = prompts.render_prompt(template_id, post)
    return write_output(
        FixtureChatProvider(fixtures_dir, model_name).fixture_path(prompt, template_id), response
    )


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
        # Token -> (coordinate, sign), computed the first time a token is
        # seen: tokens repeat, and their digests dominate the cost.
        self._slots: dict[str, tuple[int, float]] = {}

    def _slot(self, token: str) -> tuple[int, float]:
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        slot = (int.from_bytes(digest[:4], "big") % self.dim, 1.0 if digest[4] % 2 == 0 else -1.0)
        self._slots[token] = slot
        return slot

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        self.calls += 1
        slots, dim = self._slots, self.dim
        cells: list[int] = []
        signs: list[float] = []
        for row, text in enumerate(texts):
            base = row * dim
            for token in self._TOKEN_RE.findall(text.lower()):
                idx, sign = slots.get(token) or self._slot(token)
                cells.append(base + idx)
                signs.append(sign)
        # Coordinates are small integers, so every sum (and sum of squares)
        # is exact whatever the order: the same bits as one update per token.
        out = np.zeros((len(texts), dim), dtype=np.float64)
        np.add.at(out.reshape(-1), np.asarray(cells, dtype=np.intp), np.asarray(signs))
        norms = np.linalg.norm(out, axis=1)
        nonzero = norms > 0.0
        out[nonzero] /= norms[nonzero, None]
        return out


class HttpEmbeddingProvider(_HttpClient):
    """Embedding client, no rate limit; a 200 body with no vector array is
    retried, vectors of the wrong shape fail at once. Retry jitter is keyed
    by the SHA-256 of the request's JSON texts."""

    _kind = "embed"
    _timeout = 120

    def __init__(self, endpoint: str, dim: int, max_retries: int = ProviderConfig.max_retries,
                 retry_base_seconds: float = ProviderConfig.retry_base_seconds, seed: int = 0):
        super().__init__(endpoint, max_retries, retry_base_seconds, seed)
        self.dim = dim
        self.name = f"http:{endpoint}"

    def embed(self, texts: Sequence[str], retries: int | None = None) -> np.ndarray:
        """The texts' vectors; a failed request is sent again at most
        retries times (default max_retries)."""
        texts = list(texts)
        key = hashlib.sha256(json.dumps(texts).encode("utf-8")).hexdigest()
        return self._send(
            {"texts": texts}, key, lambda raw: self._vectors(raw, len(texts)), retries=retries
        )

    def _vectors(self, raw: bytes, n: int) -> np.ndarray:
        try:
            vectors = np.asarray(json.loads(raw.decode("utf-8"))["vectors"], dtype=np.float64)
        except DECODE_ERRORS as exc:
            raise _RetryBody(f"malformed response body: {exc}") from exc
        if vectors.shape != (n, self.dim):
            raise ProviderCallError(f"expected shape {(n, self.dim)}, got {vectors.shape}")
        return vectors
