"""Loopback fake of the chat and embedding services, run as its own process.

    python3 perfbench/fake_provider.py --src src

It binds 127.0.0.1 on a free port and prints the port as its first
line of standard output. Endpoints:

* ``POST /chat``  -- the chat contract of ``HttpChatProvider``; the
  template is identified by the prompt's prefix and answered by the
  synthetic mock after ``CHAT_DELAY_S``;
* ``POST /embed`` -- the ``{texts} -> {vectors}`` contract of
  ``HttpEmbeddingProvider``, answered by the 64-dimensional hashed mock
  after ``EMBED_DELAY_S``;
* ``GET /stats``  -- request counts served so far, as JSON.

Requests are served by a pool of ``WORKERS`` threads, so that many
requests are in flight at once and none waits for another.
The process exits when its standard input reaches end of file, so it
never outlives the benchmark that started it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer

CHAT_DELAY_S = 0.010
EMBED_DELAY_S = 0.002
WORKERS = 8  # the largest client pool the program may use
EMBEDDING_DIM = 64  # RunConfig's default embedding_dim


class PooledHTTPServer(HTTPServer):
    """HTTPServer that hands each connection to a fixed thread pool."""

    request_queue_size = 64

    def __init__(self, address, handler, workers: int):
        super().__init__(address, handler)
        self.pool = ThreadPoolExecutor(max_workers=workers)

    def process_request(self, request, client_address):
        self.pool.submit(self._serve, request, client_address)

    def _serve(self, request, client_address):
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)


class Counters:
    def __init__(self):
        self._lock = threading.Lock()
        self.counts = {"chat": 0, "embed": 0, "embed_texts": 0, "errors": 0}

    def add(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self.counts)


def make_handler(chat, embedder, prefixes, counters):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive, so clients may reuse connections
        timeout = 30

        def log_message(self, *args):
            pass

        def _reply(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path == "/stats":
                self._reply(200, counters.snapshot())
            else:
                self._reply(404, {"error": "not found"})

        def do_POST(self):
            length = int(self.headers.get("Content-Length", "0"))
            try:
                request = json.loads(self.rfile.read(length))
                if self.path == "/chat":
                    prompt = request["messages"][0]["content"]
                    template_id = next(t for t, p in prefixes if prompt.startswith(p))
                    text = chat.complete(prompt, template_id)
                    counters.add("chat")
                    time.sleep(CHAT_DELAY_S)
                    self._reply(200, {"choices": [{"message": {"content": text}}]})
                elif self.path == "/embed":
                    texts = request["texts"]
                    vectors = embedder.embed(texts).tolist()
                    counters.add("embed")
                    counters.add("embed_texts", len(texts))
                    time.sleep(EMBED_DELAY_S)
                    self._reply(200, {"vectors": vectors})
                else:
                    self._reply(404, {"error": "not found"})
            except (ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
                counters.add("errors")
                self._reply(400, {"error": repr(exc)})

    return Handler


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the factlens package")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    from factlens import prompts
    from factlens.providers import HashedEmbeddingProvider, SyntheticChatProvider

    prefixes = [
        (tid, text.partition("{post}")[0].replace("{{", "{").replace("}}", "}"))
        for tid, text in prompts.TEMPLATES.items()
    ]
    handler = make_handler(
        SyntheticChatProvider(),
        HashedEmbeddingProvider(dim=EMBEDDING_DIM),
        prefixes,
        Counters(),
    )
    server = PooledHTTPServer(("127.0.0.1", 0), handler, WORKERS)
    print(server.server_address[1], flush=True)

    def exit_on_eof():
        sys.stdin.read()
        os._exit(0)

    threading.Thread(target=exit_on_eof, daemon=True).start()
    server.serve_forever()


if __name__ == "__main__":
    main()
