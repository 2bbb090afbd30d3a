"""The HTTP chat provider's request pool: width, rate limit, retry schedule,
outage handling, and equality with a serial run. Every request goes to a
stubbed ``providers._post``; no socket opens."""

import sys
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from factlens import prompts, providers
from factlens.annotation import annotate_corpus, save_annotations
from factlens.providers import (
    ProviderConfig,
    ProviderUnreachableError,
    SyntheticChatProvider,
    cache_key,
)
from tests.conftest import StubResponse, chat_reply, http_chat, make_article, make_corpus

MODEL = ProviderConfig().model_name


def prompt_of(body):
    return body["messages"][0]["content"]


def template_of(prompt):
    return next(t for t in prompts.TEMPLATE_IDS if prompt.startswith(prompts.TEMPLATES[t][:20]))


def synthetic_answer(body):
    """The synthetic mock's answer to a chat request body."""
    prompt = prompt_of(body)
    return chat_reply(SyntheticChatProvider().complete(prompt, template_of(prompt)))


def articles(n):
    return make_corpus(
        [
            make_article(
                f"a{i:02d}", body=f"Claim number {i} spread online. It spread because of reposts."
            )
            for i in range(n)
        ]
    )


def test_pool_keeps_eight_requests_in_flight_and_never_more(stub_post, tmp_path):
    barrier = threading.Barrier(8, timeout=10)
    lock = threading.Lock()
    in_flight = peak = 0

    def reply(body):
        nonlocal in_flight, peak
        with lock:
            in_flight += 1
            peak = max(peak, in_flight)
        try:
            barrier.wait()  # passes only once 8 requests are in flight together
            return synthetic_answer(body)
        finally:
            with lock:
                in_flight -= 1

    stub_post(reply)
    provider = http_chat()
    annotations = annotate_corpus(
        articles(8), provider, ProviderConfig(cache_dir=tmp_path / "cache")
    )
    assert peak == 8
    assert provider.calls == 24
    assert all(not ann.failed_tags for ann in annotations.values())


def test_pool_and_serial_runs_write_identical_files(stub_post, tmp_path):
    def reply(body):
        prompt = prompt_of(body)
        # Uneven delays shuffle the order in which pooled requests finish.
        threading.Event().wait(0.001 * (zlib.crc32(prompt.encode()) % 5))
        if "number 3 " in prompt and template_of(prompt) == prompts.ENTITIES:
            return StubResponse(400, {"error": "rejected"})
        return synthetic_answer(body)

    stub_post(reply)
    corpus = articles(12)
    for name, workers in (("pool", providers.CHAT_WORKERS), ("serial", 1)):
        provider = http_chat()
        provider.workers = workers
        annotations = annotate_corpus(
            corpus, provider, ProviderConfig(cache_dir=tmp_path / name / "cache")
        )
        save_annotations(annotations, tmp_path / name / "annotations.jsonl")
        assert annotations["a03"].failed_tags == ("entities",)

    def files(name):
        root = tmp_path / name
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    pooled, serial = files("pool"), files("serial")
    assert len(pooled) == 1 + 12 * 3 - 1  # annotations.jsonl, every answer but the 400
    assert pooled == serial


def test_throttle_spaces_concurrent_sends(stub_post):
    rate, n = 1000.0, 64
    lock = threading.Lock()
    sends = []

    def reply(body):
        with lock:
            sends.append(time.monotonic())
        return chat_reply('["ok"]')

    stub_post(reply)
    provider = http_chat(rate_limit=rate)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to expose a lost update
    try:
        start = time.monotonic()
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda i: provider.complete(f"prompt {i}", prompts.CLAIM), range(n)))
    finally:
        sys.setswitchinterval(interval)
    assert provider.calls == n
    # Slots are reserved 1/rate apart and no call is sent before its slot,
    # so the k-th send (in time order) comes at least k/rate after start.
    # Threads may wake late, so two neighbouring sends can be closer; the
    # limiter bounds how many are sent by any time, not each gap.
    for k, sent in enumerate(sorted(sends)):
        assert sent - start >= k / rate - 1e-6


def test_retry_delays_follow_the_request_not_the_completion_order(stub_post, monkeypatch):
    """Two 503s, then 200, for every request; the finishing order is reversed
    between runs, and every request's backoff delays stay the same."""
    local = threading.local()
    lock = threading.Lock()
    n = 8

    def run(finish_delay):
        attempts, delays, finished = {}, {}, []

        def reply(body):
            prompt = prompt_of(body)
            local.prompt = prompt
            with lock:
                attempts[prompt] = attempts.get(prompt, 0) + 1
                if attempts[prompt] <= 2:
                    return StubResponse(503, {"error": "busy"})
            threading.Event().wait(finish_delay(int(prompt.split()[1])))
            with lock:
                finished.append(prompt)
            return chat_reply('["ok"]')

        def sleep(seconds):
            # At this rate limit the throttle waits microseconds at most;
            # every backoff is at least retry_base_seconds = 1.
            if seconds >= 1.0:
                with lock:
                    delays.setdefault(local.prompt, []).append(seconds)

        stub_post(reply)
        fake_time = SimpleNamespace(monotonic=time.monotonic, sleep=sleep)
        monkeypatch.setattr(providers, "time", fake_time)
        provider = http_chat(retry_base_seconds=1.0, seed=7)
        with ThreadPoolExecutor(max_workers=n) as pool:
            list(pool.map(lambda i: provider.complete(f"prompt {i}", prompts.CLAIM), range(n)))
        return delays, finished

    first, order_first = run(lambda i: 0.02 * i)
    second, order_second = run(lambda i: 0.02 * (n - i))
    assert order_first != order_second
    assert first == second
    assert len(first) == n and all(len(d) == 2 for d in first.values())
    provider = http_chat(retry_base_seconds=1.0, seed=7)
    for prompt, delays in first.items():
        key = cache_key(prompts.CLAIM, prompt, MODEL)
        assert delays == [provider._backoff(key, 0), provider._backoff(key, 1)]
        assert 1.0 <= delays[0] <= 1.5 and 2.0 <= delays[1] <= 3.0
    assert len({tuple(d) for d in first.values()}) == n  # jitter differs per request


def test_outage_mid_pool_aborts_with_every_answer_cached(stub_post, tmp_path):
    lock = threading.Lock()
    sent = 0
    answered = set()

    def reply(body):
        nonlocal sent
        with lock:
            sent += 1
            down = sent > 10
        # Slow replies keep requests in flight when the outage starts.
        threading.Event().wait(0.02)
        if down:
            return ConnectionRefusedError("refused")
        answer = synthetic_answer(body)
        with lock:
            answered.add(prompt_of(body))
        return answer

    stub_post(reply)
    corpus = articles(10)  # 30 requests
    config = ProviderConfig(cache_dir=tmp_path / "cache")
    provider = http_chat(max_retries=0)
    with pytest.raises(ProviderUnreachableError):
        annotate_corpus(corpus, provider, config)
    assert len(answered) == 10
    assert provider.calls < 30  # requests still queued were never sent
    cached = {path.stem for path in (tmp_path / "cache").glob("*.json")}
    assert cached == {cache_key(template_of(p), p, MODEL) for p in answered}

    resumed = SyntheticChatProvider(model_name=MODEL)
    annotate_corpus(corpus, resumed, config)
    assert resumed.calls == 30 - 10
