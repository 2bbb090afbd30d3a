import hashlib
import json
import logging
import re
import tracemalloc

import pytest

from factlens import prompts
from factlens.annotation import (
    Annotation,
    ResponseCache,
    annotate_corpus,
    load_annotations,
    save_annotations,
)
from factlens.providers import (
    FixtureChatProvider,
    ProviderCallError,
    ProviderConfig,
    ProviderUnreachableError,
    SyntheticChatProvider,
    cache_key,
    write_fixture,
)
from tests.conftest import (
    Interrupted,
    ScriptedChatProvider,
    StubResponse,
    assert_unchanged,
    chat_reply,
    http_chat,
    make_article,
    make_corpus,
)

BODY = "X claimed Y. It spread because of a parody account."


def annotate_one(provider, cache_dir=None):
    """The Annotation of one article with body BODY; a pass the provider
    has no answer for fails its own fields only."""
    config = None if cache_dir is None else ProviderConfig(cache_dir=cache_dir)
    return annotate_corpus(make_corpus([make_article("a1", body=BODY)]), provider, config)["a1"]


def test_extract_claim_echoes_fixture(tmp_path):
    write_fixture(tmp_path, prompts.CLAIM, BODY, '["X claimed Y."]')
    ann = annotate_one(FixtureChatProvider(tmp_path))
    assert "claim" not in ann.failed_tags
    assert ann.claim == ("X claimed Y.",)
    assert "claim:not_verbatim" not in ann.flags


def test_fixture_not_utf8_fails_only_its_tag(tmp_path, caplog):
    write_fixture(tmp_path, prompts.CLAIM, BODY, '["X claimed Y."]')
    write_fixture(tmp_path, prompts.WHAT_WHY, BODY, '{"what": ["X claimed Y."], "why": []}')
    path = write_fixture(tmp_path, prompts.ENTITIES, BODY, "{}")
    path.write_bytes(b'{"Joe Biden": "neutral\xff"}')
    with caplog.at_level(logging.WARNING, logger="factlens.annotation"):
        ann = annotate_one(FixtureChatProvider(tmp_path))
    assert ann.claim == ("X claimed Y.",)
    assert ann.failed_tags == ("entities",)
    assert f"{path}: not a fixture (UnicodeDecodeError: " in caplog.text


def test_extract_claim_strips_code_fences():
    provider = ScriptedChatProvider({prompts.CLAIM: '```json\n["X claimed Y."]\n```'})
    assert annotate_one(provider).claim == ("X claimed Y.",)


def test_extract_claim_unparseable_marks_failed():
    provider = ScriptedChatProvider({prompts.CLAIM: "not json"})
    assert "claim" in annotate_one(provider).failed_tags


def test_extract_claim_flags_non_verbatim():
    provider = ScriptedChatProvider({prompts.CLAIM: '["Absent sentence."]'})
    ann = annotate_one(provider)
    assert ann.claim == ("Absent sentence.",)
    assert "claim:not_verbatim" in ann.flags


def test_extract_what_why_defaults_missing_key():
    provider = ScriptedChatProvider({prompts.WHAT_WHY: '{"what":["X claimed Y."]}'})
    ann = annotate_one(provider)
    assert not {"what", "why"} & set(ann.failed_tags)
    assert (ann.what, ann.why) == (("X claimed Y.",), ())
    assert "why:missing" in ann.flags


def test_tag_entities_normalizes_labels():
    provider = ScriptedChatProvider(
        {prompts.ENTITIES: '{"Joe Biden":"positive","GOP":"Negative "}'}
    )
    assert annotate_one(provider).entities == {"Joe Biden": "positive", "GOP": "negative"}


def test_annotate_article_keeps_pass_order_of_flags_and_failures(caplog):
    """Flags run pass by pass: parse flags, then not_verbatim per field."""
    corpus = make_corpus([make_article("a1", body=BODY)])
    provider = ScriptedChatProvider(
        {
            prompts.CLAIM: '["Absent sentence.", "", "X claimed Y."]',
            prompts.WHAT_WHY: '{"what": "Invented what."}',
            prompts.ENTITIES: "no entities here",
        }
    )
    with caplog.at_level(logging.WARNING, logger="factlens.annotation"):
        ann = annotate_corpus(corpus, provider)["a1"]
    assert ann.claim == ("Absent sentence.", "X claimed Y.")
    assert ann.what == ("Invented what.",)
    assert ann.why == ()
    assert ann.entities == {}
    assert ann.failed_tags == ("entities",)
    assert ann.flags == (
        "claim:dropped_item",
        "claim:not_verbatim",
        "what:coerced_scalar",
        "why:missing",
        "what:not_verbatim",
        "entities:unparseable",
    )
    assert caplog.messages == ["unparseable entity response for a1: 'no entities here'"]


@pytest.mark.parametrize(
    "template_id, failed_tags, message",
    [
        (prompts.CLAIM, ("claim",), "claim call failed for a1: "),
        (prompts.WHAT_WHY, ("what", "why"), "what/why call failed for a1: "),
        (prompts.ENTITIES, ("entities",), "entity call failed for a1: "),
    ],
)
def test_failed_pass_marks_only_its_fields(caplog, template_id, failed_tags, message):
    responses = {
        prompts.CLAIM: '["X claimed Y."]',
        prompts.WHAT_WHY: (
            '{"what":["X claimed Y."],"why":["It spread because of a parody account."]}'
        ),
        prompts.ENTITIES: '{"GOP":"negative"}',
    }
    provider = ScriptedChatProvider(responses, fail={template_id})
    with caplog.at_level(logging.WARNING, logger="factlens.annotation"):
        ann = annotate_corpus(make_corpus([make_article("a1", body=BODY)]), provider)["a1"]
    assert ann.failed_tags == failed_tags
    assert ann.flags == (f"{template_id}:provider_error",)
    assert caplog.messages == [f"{message}scripted failure for {template_id}"]
    for tag in ("claim", "what", "why", "entities"):
        assert (getattr(ann, tag) in ((), {})) == (tag in failed_tags)


def distinct_articles(n):
    return [
        make_article(f"a{i}", body=f"Claim number {i} spread online. It spread because of reposts.")
        for i in range(n)
    ]


def test_annotate_corpus_cache_contract(tmp_path):
    corpus = make_corpus(distinct_articles(3))
    provider = SyntheticChatProvider()
    config = ProviderConfig(cache_dir=tmp_path / "cache")

    annotations = annotate_corpus(corpus, provider, config)
    assert len(annotations) == 3
    assert provider.calls == 9  # three prompts per article, cold cache

    warm_provider = SyntheticChatProvider()
    warm = annotate_corpus(corpus, warm_provider, config)
    assert warm_provider.calls == 0
    assert warm == annotations


def test_cold_annotate_holds_no_table_of_prompts(tmp_path):
    """A prompt is rendered for its key and again as it is sent, never kept
    for every miss: the traced peak stays below half of all prompts."""
    filler = " ".join(["the post was shared by many pages in the region."] * 102)
    articles = [
        make_article(f"a{i:03d}", body=f"Post {i} claimed a secret order. {filler} "
                     f"It spread because of account {i}.")
        for i in range(300)
    ]
    corpus = make_corpus(articles)
    prompt_chars = sum(
        len(prompts.render_prompt(t, a.body)) for a in articles for t in prompts.TEMPLATE_IDS
    )
    provider = SyntheticChatProvider()
    tracemalloc.start()
    try:
        annotations = annotate_corpus(corpus, provider, ProviderConfig(cache_dir=tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert provider.calls == 900 and len(annotations) == 300
    assert len(articles[0].body) > 5000
    assert peak < prompt_chars / 2, (peak, prompt_chars)


def test_warm_annotate_holds_no_table_of_responses(tmp_path):
    """Each article is parsed as soon as its responses are read and they are
    dropped: beyond the annotations it returns, a warm run's traced peak
    stays below the size of the cached responses it read."""
    corpus = make_corpus(distinct_articles(300))
    config = ProviderConfig(cache_dir=tmp_path)
    annotate_corpus(make_corpus(distinct_articles(299)), SyntheticChatProvider(), config)
    response_bytes = sum(
        len(json.loads(path.read_bytes())["response"].encode()) for path in tmp_path.iterdir()
    )
    provider = SyntheticChatProvider()
    tracemalloc.start()
    try:
        annotations = annotate_corpus(corpus, provider, config)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert provider.calls == 3 and len(annotations) == 300
    assert peak - held < response_bytes, (peak, held, response_bytes)


PAD = 50_000  # trailing spaces on every answer; the parsers strip them


class PaddedChatProvider(SyntheticChatProvider):
    def complete(self, prompt, template_id):
        return super().complete(prompt, template_id) + " " * PAD


def test_cold_annotate_holds_no_table_of_answers(tmp_path):
    """Each answer is cached as it arrives and dropped once its article is
    parsed: a cold run's traced peak stays within a few answers, not the 180
    it receives."""
    corpus = make_corpus(distinct_articles(60))
    provider = PaddedChatProvider()
    tracemalloc.start()
    try:
        annotations = annotate_corpus(corpus, provider, ProviderConfig(cache_dir=tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert provider.calls == 180
    assert not any(ann.failed_tags for ann in annotations.values())
    assert peak < 10 * PAD, peak / PAD


def test_an_answer_is_reused_only_through_the_cache(tmp_path, monkeypatch):
    """Three articles share one body. A failed call is no answer, so each
    article sends its own three requests; an answered key that a later
    article asks for is read from the cache."""
    corpus = make_corpus([make_article(f"a{i}", body=BODY) for i in range(3)])
    config = ProviderConfig(cache_dir=tmp_path / "cache")
    provider = FixtureChatProvider(tmp_path / "fixtures")
    annotations = annotate_corpus(corpus, provider, config)
    assert provider.calls == 9
    assert all(
        ann.failed_tags == ("claim", "what", "why", "entities") for ann in annotations.values()
    )

    write_fixture(tmp_path / "fixtures", prompts.CLAIM, BODY, '["X claimed Y."]')
    claim_key = cache_key(
        prompts.CLAIM, prompts.render_prompt(prompts.CLAIM, BODY), provider.model_name
    )
    reads = []
    get = ResponseCache.get

    def lookup(self, key):
        response = get(self, key)
        if key == claim_key:
            reads.append(response)
        return response

    monkeypatch.setattr(ResponseCache, "get", lookup)
    provider = FixtureChatProvider(tmp_path / "fixtures")
    annotations = annotate_corpus(corpus, provider, config)
    assert provider.calls == 1 + 2 * 3  # the claim once; what/why and entities per article
    assert reads == [None, '["X claimed Y."]', '["X claimed Y."]']
    assert all(ann.claim == ("X claimed Y.",) for ann in annotations.values())


def test_cache_key_oracle(tmp_path):
    """The cache file name equals an independent hash recomputation."""
    article = make_article("a1", body=BODY)
    corpus = make_corpus([article])
    provider = SyntheticChatProvider()
    config = ProviderConfig(cache_dir=tmp_path / "cache")
    annotate_corpus(corpus, provider, config)

    prompt = prompts.TEMPLATES[prompts.CLAIM].format(post=BODY)
    payload = f"{prompts.CLAIM}\n{provider.model_name}\n{prompt}".encode()
    expected = hashlib.sha256(payload).hexdigest()
    assert (tmp_path / "cache" / f"{expected}.json").exists()
    assert expected == cache_key(prompts.CLAIM, prompt, provider.model_name)


def test_cache_corruption_refetches_exactly_one(tmp_path):
    corpus = make_corpus(distinct_articles(3))
    config = ProviderConfig(cache_dir=tmp_path / "cache")
    annotate_corpus(corpus, SyntheticChatProvider(), config)

    entries = sorted((tmp_path / "cache").glob("*.json"))
    assert len(entries) == 9
    entries[0].write_text("corrupt {", encoding="utf-8")

    provider = SyntheticChatProvider()
    annotate_corpus(corpus, provider, config)
    assert provider.calls == 1


def test_a_cache_entry_that_repeats_a_key_is_refetched(tmp_path, caplog):
    """{"response": "a", "response": "b"} is corrupt, not the response "b"."""
    corpus = make_corpus(distinct_articles(3))
    config = ProviderConfig(cache_dir=tmp_path / "cache")
    annotate_corpus(corpus, SyntheticChatProvider(), config)
    entry = sorted((tmp_path / "cache").glob("*.json"))[0]
    kept = entry.read_bytes()
    entry.write_bytes(b'{"response": "a", "response": "b"}')

    provider = SyntheticChatProvider()
    with caplog.at_level(logging.WARNING, logger="factlens.annotation"):
        annotate_corpus(corpus, provider, config)
    assert provider.calls == 1
    assert f"cache entry {entry.stem} is corrupt; refetching" in caplog.text
    assert entry.read_bytes() == kept


def _symlink_loop(path):
    path.symlink_to(path.name)


def _cache_dir_replaced_by_file(path):
    for entry in path.parent.iterdir():
        entry.unlink()
    path.parent.rmdir()
    path.parent.write_text("not a directory", encoding="utf-8")


# Each case: how the entry's file is made, the value get() returns, and
# whether it is reported as corrupt (a miss is not).
CACHE_ENTRIES = {
    "valid": (lambda p: p.write_bytes(b'{"response": "ok"}'), "ok", False),
    "valid-crlf": (lambda p: p.write_bytes(b'{\r\n"response": "ok"}\r\n'), "ok", False),
    "missing": (lambda p: None, None, False),
    "dangling-symlink": (lambda p: p.symlink_to("elsewhere.json"), None, False),
    "symlink-loop": (_symlink_loop, None, False),
    "cache-dir-is-a-file": (_cache_dir_replaced_by_file, None, False),
    "directory": (lambda p: p.mkdir(), None, True),
    "not-utf8": (lambda p: p.write_bytes(b'{"response": "\xff"}'), None, True),
    "utf8-bom": (lambda p: p.write_bytes(b'\xef\xbb\xbf{"response": "ok"}'), None, True),
    "utf16": (lambda p: p.write_bytes('{"response": "ok"}'.encode("utf-16")), None, True),
    "truncated": (lambda p: p.write_bytes(b'{"response": "o'), None, True),
    "not-an-object": (lambda p: p.write_bytes(b'["ok"]'), None, True),
    "no-response": (lambda p: p.write_bytes(b'{"other": "ok"}'), None, True),
    "non-string-response": (lambda p: p.write_bytes(b'{"response": 3}'), None, True),
    "deep-nesting": (
        lambda p: p.write_bytes(b'{"response": ' + b"[" * 200_000 + b"]" * 200_000 + b"}"),
        None, True,
    ),
    "unpaired-surrogate": (lambda p: p.write_bytes(b'{"response": "x \\ud800"}'), None, True),
}


@pytest.mark.parametrize("make, value, corrupt", CACHE_ENTRIES.values(), ids=CACHE_ENTRIES)
def test_cache_get_on_each_kind_of_entry(tmp_path, caplog, make, value, corrupt):
    """get() returns a stored string response and None for anything else;
    only an entry that exists but cannot be read as one is reported."""
    cache = ResponseCache(tmp_path / "cache")
    cache.put("other", "kept")
    make(tmp_path / "cache" / "key.json")
    with caplog.at_level(logging.WARNING, logger="factlens.annotation"):
        assert cache.get("key") == value
    assert ("cache entry key is corrupt" in caplog.text) == corrupt


def test_cached_response_stored_byte_equal(tmp_path):
    """Cache soundness: the stored response is byte-equal to the provider's."""
    provider = ScriptedChatProvider(
        {
            prompts.CLAIM: '["X claimed Y."]\n',
            prompts.WHAT_WHY: '{"what":[],"why":[]}',
            prompts.ENTITIES: "{}",
        }
    )
    annotate_one(provider, tmp_path)
    prompt = prompts.render_prompt(prompts.CLAIM, BODY)
    key = cache_key(prompts.CLAIM, prompt, provider.model_name)
    stored = json.loads((tmp_path / f"{key}.json").read_text())["response"]
    assert stored == '["X claimed Y."]\n'
    # Warm read re-parses the stored bytes to the same value.
    warm = annotate_one(provider, tmp_path)
    assert warm.claim == ("X claimed Y.",)
    assert provider.calls == 3  # each pass sent once, by the cold run


def test_partial_failure_isolation():
    corpus = make_corpus([make_article("a1", body=BODY)])
    provider = ScriptedChatProvider(
        {
            prompts.CLAIM: '["X claimed Y."]',
            prompts.WHAT_WHY: '{"what":["X claimed Y."],"why":[]}',
        },
        fail={prompts.ENTITIES},
    )
    annotations = annotate_corpus(corpus, provider)
    ann = annotations["a1"]
    assert ann.failed_tags == ("entities",)
    assert ann.claim == ("X claimed Y.",)
    assert ann.what == ("X claimed Y.",)
    assert ann.entities == {}


def test_unreachable_provider_aborts_preserving_cache(tmp_path):
    corpus = make_corpus(distinct_articles(3))
    config = ProviderConfig(cache_dir=tmp_path / "cache")

    class FlakyProvider(SyntheticChatProvider):
        def complete(self, prompt, template_id):
            if self.calls >= 4:
                raise ProviderUnreachableError("down")
            return super().complete(prompt, template_id)

    with pytest.raises(ProviderUnreachableError):
        annotate_corpus(corpus, FlakyProvider(), config)
    # The four completed calls stay cached for the next run.
    assert len(list((tmp_path / "cache").glob("*.json"))) == 4
    resumed = SyntheticChatProvider()
    annotate_corpus(corpus, resumed, config)
    assert resumed.calls == 5


def test_an_outage_ends_the_pass_where_it_is_raised(tmp_path, monkeypatch):
    """A provider down at its first call aborts before any later lookup:
    one call and one cache read, not a scan of the rest of the corpus."""
    reads = []
    get = ResponseCache.get

    def lookup(self, key):
        reads.append(key)
        return get(self, key)

    monkeypatch.setattr(ResponseCache, "get", lookup)

    class DownProvider(SyntheticChatProvider):
        def complete(self, prompt, template_id):
            self.calls += 1
            raise ProviderUnreachableError("down")

    provider = DownProvider()
    config = ProviderConfig(cache_dir=tmp_path / "cache")
    with pytest.raises(ProviderUnreachableError, match="down"):
        annotate_corpus(make_corpus(distinct_articles(300)), provider, config)
    assert provider.calls == 1
    assert len(reads) == 1


def test_annotate_corpus_deterministic_with_mock():
    corpus = make_corpus(distinct_articles(4))
    first = annotate_corpus(corpus, SyntheticChatProvider())
    second = annotate_corpus(corpus, SyntheticChatProvider())
    assert first == second


def test_an_annotation_row_that_repeats_a_key_names_its_line(tmp_path):
    """A row holding "claim" twice is refused, not read as its last value."""
    annotations = annotate_corpus(make_corpus(distinct_articles(3)), SyntheticChatProvider())
    path = tmp_path / "annotations.jsonl"
    save_annotations(annotations, path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = lines[1].replace('"claim": ', '"claim": [], "claim": ', 1)
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match=(
        f"^{re.escape(str(path))}:2: not a valid row "
        "\\(ValueError: an object repeats the key 'claim'\\)$"
    )):
        load_annotations(path)


def test_annotations_jsonl_round_trip(tmp_path):
    corpus = make_corpus(distinct_articles(3))
    annotations = annotate_corpus(corpus, SyntheticChatProvider())
    path = tmp_path / "annotations.jsonl"
    save_annotations(annotations, path)
    assert load_annotations(path) == annotations


def test_a_repeated_article_id_names_its_line(tmp_path):
    """A second row for one article is an error, never a silent overwrite."""
    annotations = annotate_corpus(make_corpus(distinct_articles(3)), SyntheticChatProvider())
    path = tmp_path / "annotations.jsonl"
    save_annotations(annotations, path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines + lines[:1]), encoding="utf-8")
    with pytest.raises(ValueError, match=(
        f"^{re.escape(str(path))}:4: not a valid row \\(ValueError: duplicate article_id"
    )):
        load_annotations(path)


def test_interrupted_annotation_save_keeps_the_previous_file(tmp_path):
    annotations = annotate_corpus(make_corpus(distinct_articles(4)), SyntheticChatProvider())
    path = tmp_path / "annotations.jsonl"
    save_annotations(annotations, path)
    before = {path.name: path.read_bytes()}
    with pytest.raises(KeyboardInterrupt):
        save_annotations(Interrupted(annotations, at=sorted(annotations)[2]), path)
    assert_unchanged(before, tmp_path)


@pytest.mark.parametrize("content", [None, 3, ["X claimed Y."]])
def test_http_chat_non_string_content_fails_the_call(stub_post, content):
    stub_post(chat_reply(content))
    with pytest.raises(ProviderCallError, match="malformed response body"):
        http_chat().complete("prompt", prompts.CLAIM)


def test_http_chat_null_content_fails_only_its_tag(stub_post, tmp_path):
    """A 200 with null content fails its tag and caches nothing for it."""
    synthetic = SyntheticChatProvider()

    def reply(body):
        prompt = body["messages"][0]["content"]
        template_id = next(
            t for t in prompts.TEMPLATE_IDS if prompt.startswith(prompts.TEMPLATES[t][:20])
        )
        if template_id == prompts.ENTITIES:
            return chat_reply(None)
        return chat_reply(synthetic.complete(prompt, template_id))

    stub_post(reply)
    corpus = make_corpus([make_article("a1", body=BODY)])
    config = ProviderConfig(cache_dir=tmp_path / "cache")
    ann = annotate_corpus(corpus, http_chat(), config)["a1"]
    assert ann.failed_tags == ("entities",)
    assert ann.flags == ("entities:provider_error",)
    assert ann.claim == ("X claimed Y.",)
    assert len(list((tmp_path / "cache").glob("*.json"))) == 2


def test_http_chat_retries_5xx_then_succeeds(stub_post):
    stub_post(StubResponse(503, {"error": "busy"}), chat_reply('["ok"]'))
    provider = http_chat()
    assert provider.complete("prompt", prompts.CLAIM) == '["ok"]'
    assert provider.calls == 2


def test_http_chat_4xx_fails_at_once(stub_post):
    stub_post(StubResponse(400, {"error": "bad request"}))
    provider = http_chat()
    with pytest.raises(ProviderCallError, match="HTTP 400"):
        provider.complete("prompt", prompts.CLAIM)
    assert provider.calls == 1


def test_http_chat_transport_errors_after_retries_are_unreachable(stub_post):
    stub_post(ConnectionRefusedError("refused"))
    provider = http_chat(max_retries=2)
    with pytest.raises(ProviderUnreachableError, match="refused"):
        provider.complete("prompt", prompts.CLAIM)
    assert provider.calls == 3


GOOD_RESPONSES = {
    prompts.CLAIM: '["X claimed Y."]',
    prompts.WHAT_WHY: '{"what": ["X claimed Y."], "why": []}',
    prompts.ENTITIES: '{"X": "neutral"}',
}
# Each case: the pass, a response whose parsed value or flags would hold an
# unpaired surrogate, and the fields that then fail.
SURROGATE_RESPONSES = {
    "claim-json": (prompts.CLAIM, '["bad \\ud800 x"]', ("claim",)),
    "claim-python-literal": (prompts.CLAIM, "['bad \\U0000d800 x']", ("claim",)),
    "what-why": (prompts.WHAT_WHY, '{"what": [], "why": ["bad \\udfff x"]}', ("what", "why")),
    "entity-name": (prompts.ENTITIES, '{"bad \\ud800 x": "neutral"}', ("entities",)),
    "dropped-entity-name": (prompts.ENTITIES, '{"bad \\ud800 x": "unsure"}', ("entities",)),
}


@pytest.mark.parametrize(
    "template_id, response, failed", SURROGATE_RESPONSES.values(), ids=SURROGATE_RESPONSES
)
def test_parsed_unpaired_surrogate_is_unparseable(tmp_path, template_id, response, failed):
    ann = annotate_one(ScriptedChatProvider({**GOOD_RESPONSES, template_id: response}))
    assert ann.failed_tags == failed
    assert f"{template_id}:unparseable" in ann.flags
    save_annotations({"a1": ann}, tmp_path / "annotations.jsonl")
    assert load_annotations(tmp_path / "annotations.jsonl") == {"a1": ann}


@pytest.mark.parametrize("cached", [True, False], ids=["cache", "no-cache"])
def test_provider_response_with_unpaired_surrogate_fails_only_its_tag(tmp_path, cached):
    """A response from any provider that no writer can encode fails its own
    tag, is not cached, and leaves the annotation writable."""
    provider = ScriptedChatProvider({**GOOD_RESPONSES, prompts.CLAIM: '["x\ud800"]'})
    ann = annotate_one(provider, tmp_path / "cache" if cached else None)
    assert ann.failed_tags == ("claim",)
    assert ann.flags == ("claim:provider_error",)
    if cached:
        assert len(list((tmp_path / "cache").glob("*.json"))) == 2
    save_annotations({"a1": ann}, tmp_path / "annotations.jsonl")
    assert load_annotations(tmp_path / "annotations.jsonl") == {"a1": ann}


def test_http_chat_content_with_unpaired_surrogate_fails_only_its_tag(stub_post, tmp_path):
    """Content that no writer can encode is a malformed body: its tag fails
    and nothing is cached for it, the other passes go on."""
    def reply(body):
        prompt = body["messages"][0]["content"]
        template_id = next(
            t for t in prompts.TEMPLATE_IDS if prompt.startswith(prompts.TEMPLATES[t][:20])
        )
        return chat_reply('["bad \ud800 x"]' if template_id == prompts.CLAIM
                          else GOOD_RESPONSES[template_id])

    stub_post(reply)
    with pytest.raises(ProviderCallError, match="malformed response body"):
        http_chat().complete(prompts.render_prompt(prompts.CLAIM, BODY), prompts.CLAIM)
    ann = annotate_one(http_chat(), tmp_path / "cache")
    assert ann.failed_tags == ("claim",)
    assert ann.flags == ("claim:provider_error",)
    assert len(list((tmp_path / "cache").glob("*.json"))) == 2


@pytest.mark.parametrize("entities", [
    {"": "negative"}, {" \x85": "positive"}, {"Joe Biden": "happy"}, {"Joe Biden": ""},
])
def test_saving_entities_the_loader_refuses_keeps_the_previous_file(tmp_path, entities):
    """The writer checks a row's entities by the loader's rule, so it never
    writes a file that load_annotations refuses."""
    path = tmp_path / "annotations.jsonl"
    good = {"a1": Annotation("a1", entities={"Joe Biden": "negative"})}
    save_annotations(good, path)
    before = {path.name: path.read_bytes()}
    with pytest.raises(ValueError, match=(
        f"^{re.escape(str(path))}: cannot write 'b2' \\(TypeError: entities: "
        "expected non-empty names mapped to sentiment labels\\)$"
    )):
        save_annotations({**good, "b2": Annotation("b2", entities=entities)}, path)
    assert_unchanged(before, tmp_path)
    assert load_annotations(path) == good
