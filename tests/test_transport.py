"""The live providers' real transport, ``providers._post``, against an
``http.server`` on 127.0.0.1 served from a thread: statuses, bodies,
headers and a closed port. No request leaves the machine."""

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from factlens import prompts
from factlens.providers import (
    HttpChatProvider,
    HttpEmbeddingProvider,
    ProviderCallError,
    ProviderConfig,
    ProviderUnreachableError,
)

RETRIES = 2
NOT_UTF8 = b'{"choices": [{"message": {"content": "caf\xe9"}}], "vectors": [[1, 0]]}'


class ScriptedServer(HTTPServer):
    """Answers each POST with the next scripted (status, body, headers)
    reply, repeating the last one, and records (path, headers, body) of
    every request."""

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.replies: list[tuple[int, bytes, dict[str, str]]] = []
        self.seen: list[tuple[str, dict[str, str], bytes]] = []

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}"

    def script(self, *replies) -> None:
        """Each reply is (status, body) or (status, body, headers)."""
        self.replies = [reply if len(reply) == 3 else (*reply, {}) for reply in replies]


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def do_POST(self):
        server = self.server
        body = self.rfile.read(int(self.headers["Content-Length"]))
        server.seen.append((self.path, dict(self.headers), body))
        status, reply, headers = (
            server.replies.pop(0) if len(server.replies) > 1 else server.replies[0]
        )
        self.send_response(status)
        headers = {"Content-Length": str(len(reply)), **headers}
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(reply)


@pytest.fixture
def server(monkeypatch):
    monkeypatch.setenv("no_proxy", "*")  # a proxy set in the environment is not used
    srv = ScriptedServer()
    thread = threading.Thread(target=srv.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def chat(url, api_key=None):
    config = ProviderConfig(endpoint=f"{url}/chat", max_retries=RETRIES, rate_limit=1e6)
    provider = HttpChatProvider(config, api_key=api_key)
    provider._backoff_base = 0.0  # the local server answers at once
    return provider


def embedder(url):
    provider = HttpEmbeddingProvider(f"{url}/embed", dim=2, max_retries=RETRIES)
    provider._backoff_base = 0.0
    return provider


def send(provider):
    if isinstance(provider, HttpChatProvider):
        return provider.complete("a prompt", prompts.CLAIM)
    return provider.embed(["a text"]).tolist()


OK = {  # a 200 body (chat's holds text outside ASCII) and what the provider returns
    "chat": (json.dumps({"choices": [{"message": {"content": "café ✓"}}]}, ensure_ascii=False),
             "café ✓"),
    "embed": (json.dumps({"vectors": [[0.6, 0.8]]}), [[0.6, 0.8]]),
}
MAKE = {"chat": chat, "embed": embedder}
KINDS = pytest.mark.parametrize("kind", ["chat", "embed"])


@KINDS
def test_a_200_body_is_parsed(server, kind):
    body, expected = OK[kind]
    server.script((200, body.encode("utf-8"), {"Content-Type": "application/json"}))
    provider = MAKE[kind](server.url)
    assert send(provider) == expected
    assert provider.calls == 1
    assert [path for path, _, _ in server.seen] == [f"/{kind}"]


@KINDS
def test_429_is_retried_then_200_succeeds(server, kind):
    server.script((429, b'{"error": "slow down"}'), (200, OK[kind][0].encode("utf-8")))
    provider = MAKE[kind](server.url)
    assert send(provider) == OK[kind][1]
    assert provider.calls == 2


@KINDS
def test_503_until_the_retries_run_out(server, kind):
    server.script((503, b'{"error": "busy"}'))
    provider = MAKE[kind](server.url)
    with pytest.raises(ProviderCallError, match="failed after retries: HTTP 503$"):
        send(provider)
    assert provider.calls == len(server.seen) == RETRIES + 1


@KINDS
def test_404_fails_at_once_with_its_body(server, kind):
    server.script((404, b'{"error": "no such route"}'))
    provider = MAKE[kind](server.url)
    with pytest.raises(ProviderCallError, match='^HTTP 404: {"error": "no such route"}$'):
        send(provider)
    assert provider.calls == len(server.seen) == 1


@KINDS
def test_302_is_not_followed(server, kind):
    server.script((302, b"", {"Location": f"{server.url}/elsewhere"}),
                  (200, OK[kind][0].encode("utf-8")))
    provider = MAKE[kind](server.url)
    with pytest.raises(ProviderCallError, match="^HTTP 302: $"):
        send(provider)
    assert [path for path, _, _ in server.seen] == [f"/{kind}"]


def test_non_utf8_200_body_fails_a_chat_call_at_once(server):
    server.script((200, NOT_UTF8))
    provider = chat(server.url)
    with pytest.raises(ProviderCallError, match="^malformed response body: 'utf-8' codec"):
        send(provider)
    assert provider.calls == 1


def test_non_utf8_200_body_is_retried_by_the_embedder(server):
    server.script((200, NOT_UTF8), (200, OK["embed"][0].encode("utf-8")))
    provider = embedder(server.url)
    assert send(provider) == OK["embed"][1]
    assert provider.calls == 2
    server.script((200, NOT_UTF8))
    with pytest.raises(ProviderCallError, match="failed after retries: malformed response body"):
        send(provider)
    assert provider.calls == 2 + RETRIES + 1


@KINDS
@pytest.mark.parametrize("status, message", [
    (500, "failed after retries: HTTP 500$"),
    (400, "^HTTP 400: caf\ufffd "),  # the body's text, with the bad byte replaced
], ids=["500", "400"])
def test_non_utf8_error_body_raises_no_decode_error(server, kind, status, message):
    server.script((status, b"caf\xe9 \xff\xfe broken"))
    with pytest.raises(ProviderCallError, match=message):
        send(MAKE[kind](server.url))


@KINDS
def test_a_body_cut_short_is_a_transport_error(server, kind):
    # The reply promises more bytes than it sends, then the connection closes.
    server.script((200, b'{"vectors": ', {"Content-Length": "1000"}))
    provider = MAKE[kind](server.url)
    with pytest.raises(ProviderUnreachableError, match="IncompleteRead"):
        send(provider)
    assert provider.calls == RETRIES + 1


@KINDS
def test_a_closed_port_is_unreachable(kind):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))  # bound and never listening: connects are refused
        provider = MAKE[kind](f"http://127.0.0.1:{sock.getsockname()[1]}")
        with pytest.raises(ProviderUnreachableError, match="Connection refused"):
            send(provider)
    assert provider.calls == RETRIES + 1


@pytest.mark.parametrize("api_key", [None, "sk-test"])
def test_chat_request_headers_and_body(server, api_key):
    server.script((200, OK["chat"][0].encode("utf-8")))
    provider = chat(server.url, api_key=api_key)
    send(provider)
    [(_, headers, body)] = server.seen
    assert headers["Content-Type"] == "application/json"
    assert headers.get("Authorization") == (f"Bearer {api_key}" if api_key else None)
    assert json.loads(body) == {
        "model": provider.model_name, "messages": [{"role": "user", "content": "a prompt"}],
    }


def test_embed_request_headers_and_body(server):
    server.script((200, OK["embed"][0].encode("utf-8")))
    send(embedder(server.url))
    [(_, headers, body)] = server.seen
    assert headers["Content-Type"] == "application/json"
    assert "Authorization" not in headers
    assert json.loads(body) == {"texts": ["a text"]}
