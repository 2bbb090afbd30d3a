import datetime as dt
import json

import pytest

from factlens import providers
from factlens.annotation import Annotation
from factlens.corpus import Article, Corpus
from factlens.providers import (
    HashedEmbeddingProvider,
    HttpChatProvider,
    ProviderCallError,
    ProviderConfig,
    ProviderUnreachableError,
    SyntheticChatProvider,
)


def make_article(
    article_id: str,
    org: str = "PolitiFact",
    date: dt.date = dt.date(2020, 6, 1),
    body: str = "A post claimed that Joe Biden signed a secret order. "
    "It spread because a parody account was mistaken for a real one.",
    country: str = "USA",
) -> Article:
    return Article(
        id=article_id,
        org=org,
        country=country,
        published_at=date,
        title=f"Fact check {article_id}",
        body=body,
    )


def make_corpus(articles, date_range=(dt.date(2018, 1, 1), dt.date(2023, 12, 31))) -> Corpus:
    ordered = tuple(sorted(articles, key=lambda a: (a.published_at, a.id)))
    return Corpus(ordered, date_range)


def make_annotation(article_id: str, entities: dict[str, str], **kwargs) -> Annotation:
    return Annotation(article_id=article_id, entities=entities, **kwargs)


class ScriptedChatProvider:
    """Returns one canned response per template id; a template that is not
    scripted, or that it is told to fail, fails the call."""

    def __init__(self, responses: dict[str, str], fail: set[str] = frozenset(),
                 unreachable: bool = False, model_name: str = "mock-scripted"):
        self.responses = responses
        self.fail = set(fail)
        self.unreachable = unreachable
        self.model_name = model_name
        self.calls = 0

    def complete(self, prompt: str, template_id: str) -> str:
        self.calls += 1
        if self.unreachable:
            raise ProviderUnreachableError("scripted outage")
        if template_id in self.fail or template_id not in self.responses:
            raise ProviderCallError(f"scripted failure for {template_id}")
        return self.responses[template_id]


@pytest.fixture
def hashed_provider():
    return HashedEmbeddingProvider(dim=64)


@pytest.fixture
def synthetic_provider():
    return SyntheticChatProvider()


class StubResponse:
    """A reply of status_code whose body is body as JSON."""

    def __init__(self, status_code: int = 200, body: object = None):
        self.status_code = status_code
        self.content = json.dumps(body).encode("utf-8")


@pytest.fixture
def stub_post(monkeypatch):
    """Replace ``providers._post`` with a playback of replies; no socket
    opens.

    ``stub_post(*replies)`` answers each request with the next reply and
    repeats the last one. A reply is a ``StubResponse``, an exception to
    raise, or a function of the request's JSON body returning either.
    """

    def install(*replies):
        queue = list(replies)

        def post(url, body, headers, timeout):
            reply = queue.pop(0) if len(queue) > 1 else queue[0]
            if callable(reply):
                reply = reply(body)
            if isinstance(reply, BaseException):
                raise reply
            return reply.status_code, reply.content

        monkeypatch.setattr(providers, "_post", post)

    return install


def http_chat(max_retries=2, rate_limit=1e6, backoff_base=0.0, seed=0):
    """A chat client of the stubbed endpoint; with the default backoff_base
    its retries wait no backoff."""
    config = ProviderConfig(endpoint="http://chat.test/v1", max_retries=max_retries,
                            rate_limit=rate_limit)
    provider = HttpChatProvider(config, seed=seed)
    provider._backoff_base = backoff_base
    return provider


def chat_reply(content):
    return StubResponse(200, {"choices": [{"message": {"content": content}}]})


class Interrupted(dict):
    """A dict whose lookup of the key ``at`` raises KeyboardInterrupt: a
    writer iterating over it stops midway, as a killed process would."""

    def __init__(self, items, at):
        super().__init__(items)
        self.at = at

    def __getitem__(self, key):
        if key == self.at:
            raise KeyboardInterrupt
        return super().__getitem__(key)


def assert_unchanged(before: dict, directory) -> None:
    """Each file of directory holds the bytes in before (name -> bytes),
    and no other file, a leftover temp file included, is there."""
    assert {p.name: p.read_bytes() for p in directory.iterdir()} == before
