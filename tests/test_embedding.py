import hashlib
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from factlens import pipeline, prompts, providers
from factlens.annotation import Annotation, load_annotations
from factlens.config import RunConfig
from factlens.embedding import (
    aggregate_tag,
    cosine,
    embed_annotations,
    embed_sentences,
    load_embeddings,
    save_embeddings,
)
from factlens.corpus import write_corpus_file
from factlens.providers import (
    HashedEmbeddingProvider,
    HttpEmbeddingProvider,
    ProviderCallError,
    ProviderConfig,
    ProviderUnreachableError,
)
from factlens.synthetic import make_articles
from tests.conftest import (
    Interrupted,
    StubResponse,
    assert_unchanged,
    http_chat,
    make_corpus,
)


def reference_hashed_vector(text: str, dim: int) -> list[float]:
    """Independent evaluation of the documented mock hash function, one
    token at a time in plain Python floats."""
    counts = [0.0] * dim
    for token in re.findall(r"[a-z0-9']+", text.lower()):
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        counts[int.from_bytes(digest[:4], "big") % dim] += 1.0 if digest[4] % 2 == 0 else -1.0
    norm = math.sqrt(sum(c * c for c in counts))
    return [c / norm for c in counts] if norm > 0.0 else counts


def test_mock_embedder_deterministic(hashed_provider):
    vectors = embed_sentences(["a", "a"], hashed_provider)
    assert vectors.shape == (2, 64)
    assert np.array_equal(vectors[0], vectors[1])


def test_embed_empty_list(hashed_provider):
    assert embed_sentences([], hashed_provider).shape == (0, 64)


def test_mock_embedder_matches_reference_oracle(hashed_provider):
    vectors = embed_sentences(["a", "b"], hashed_provider)
    assert np.array_equal(vectors[0], reference_hashed_vector("a", 64))
    assert np.array_equal(vectors[1], reference_hashed_vector("b", 64))
    assert np.any(vectors[0] != vectors[1])


embedder_texts = st.lists(
    st.one_of(
        st.text(max_size=40),
        st.text(alphabet="aAbB019' -.,\u00e9\u2019", max_size=40),
        st.sampled_from(["", "   ", "?!", "don't won't 2020", "a a a A a", "b'' ''b 7 7"]),
    ),
    max_size=10,
)


@settings(max_examples=150, deadline=None)
@given(embedder_texts, embedder_texts, st.sampled_from([1, 7, 64]))
def test_hashed_embedder_matches_scalar_reference(first, second, dim):
    """Every call, including those that read token slots remembered from an
    earlier call on the same instance, gives the bits of the definition."""
    provider = HashedEmbeddingProvider(dim=dim)
    for texts in (first, second, first + second):
        vectors = provider.embed(texts)
        assert vectors.dtype == np.float64 and vectors.shape == (len(texts), dim)
        expected = np.array([reference_hashed_vector(t, dim) for t in texts]).reshape(-1, dim)
        assert vectors.tobytes() == expected.tobytes()


def test_embed_rejects_empty_strings(hashed_provider):
    with pytest.raises(ValueError):
        embed_sentences(["ok", ""], hashed_provider)


def test_aggregate_single_vector():
    v = np.array([3.0, 4.0])
    pooled = aggregate_tag([v])
    assert np.allclose(pooled, v / 5.0)
    assert np.isclose(np.linalg.norm(pooled), 1.0, atol=1e-6)


def test_aggregate_mean_is_idempotent_on_copies():
    v = np.array([1.0, 2.0, 2.0])
    assert np.allclose(aggregate_tag([v, v]), v / 3.0)


def test_aggregate_symmetry():
    pooled = aggregate_tag([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert np.allclose(pooled, np.array([1.0, 1.0]) / np.sqrt(2.0))


def test_aggregate_empty_and_zero_mean_are_absent():
    assert aggregate_tag([]) is None
    assert aggregate_tag([np.array([1.0, 0.0]), np.array([-1.0, 0.0])]) is None


@pytest.mark.parametrize(
    "vectors",
    [
        [[np.nan, 1.0], [0.0, 1.0]],
        [[np.inf, 0.0], [0.0, 1.0]],
        [[-np.inf, 0.0]],
        [[1e308, 0.0], [1e308, 0.0]],  # the sum overflows
        [[1e200, 1e200]],  # finite mean, infinite norm
    ],
    ids=["nan", "inf", "minus-inf", "overflowing-mean", "overflowing-norm"],
)
def test_aggregate_non_finite_is_absent(vectors):
    with np.errstate(over="ignore", invalid="ignore"):
        assert aggregate_tag(np.array(vectors)) is None


def test_cosine_trivial_cases():
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    assert cosine(u, u) == 1.0
    assert cosine(u, v) == 0.0
    assert cosine(u, -u) == -1.0


def test_cosine_dimension_mismatch_fatal():
    with pytest.raises(ValueError):
        cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))


unit_vectors = arrays(
    np.float64,
    8,
    elements=st.floats(-1.0, 1.0, allow_nan=False, width=64),
).filter(lambda v: np.linalg.norm(v) > 1e-9).map(lambda v: v / np.linalg.norm(v))


@settings(max_examples=200, deadline=None)
@given(unit_vectors, unit_vectors)
def test_cosine_symmetric_and_bounded(u, v):
    assert cosine(u, v) == cosine(v, u)
    assert -1.0 <= cosine(u, v) <= 1.0


@settings(max_examples=100, deadline=None)
@given(st.lists(unit_vectors, min_size=1, max_size=6), st.randoms(use_true_random=False))
def test_aggregate_permutation_invariant(vectors, rnd):
    shuffled = vectors[:]
    rnd.shuffle(shuffled)
    a = aggregate_tag(vectors)
    b = aggregate_tag(shuffled)
    if a is None or b is None:
        assert a is None and b is None
    else:
        assert np.allclose(a, b, atol=1e-12)


def test_embed_annotations_marks_failures_absent(hashed_provider):
    annotations = {
        "a1": Annotation("a1", claim=("some claim",), what=("w",), why=()),
        "a2": Annotation("a2", failed_tags=("claim", "what", "why")),
    }
    embeddings = embed_annotations(annotations, hashed_provider)
    assert not embeddings[("a1", "claim")].absent
    assert embeddings[("a1", "why")].absent  # no sentences
    assert embeddings[("a2", "claim")].absent  # failed tag
    vec = embeddings[("a1", "claim")].vector
    assert np.isclose(np.linalg.norm(vec), 1.0, atol=1e-6)


def test_embed_annotations_discards_failed_batches(hashed_provider):
    """A permanently failing batch leaves its tags absent, others intact."""
    from factlens.providers import ProviderCallError

    class FlakyEmbedder(HashedEmbeddingProvider):
        def embed(self, texts):
            if any("poison" in t for t in texts):
                raise ProviderCallError("batch rejected")
            return super().embed(texts)

    annotations = {
        "a1": Annotation("a1", claim=("fine text",), what=("poison pill",), why=("ok",)),
    }
    embeddings = embed_annotations(annotations, FlakyEmbedder(dim=64))
    assert not embeddings[("a1", "claim")].absent
    assert embeddings[("a1", "what")].absent
    assert not embeddings[("a1", "why")].absent


def test_embeddings_sidecar_round_trip(tmp_path, hashed_provider):
    annotations = {
        "a1": Annotation("a1", claim=("alpha beta",), what=("gamma",), why=("delta",)),
        "a2": Annotation("a2", claim=(), what=("epsilon zeta",), why=()),
    }
    embeddings = embed_annotations(annotations, hashed_provider)
    path = tmp_path / "embeddings.jsonl"
    save_embeddings(embeddings, path, dim=64, provider_name=hashed_provider.name)
    loaded, dim = load_embeddings(path)
    assert dim == 64
    assert set(loaded) == set(embeddings)
    for key, emb in embeddings.items():
        if emb.absent:
            assert loaded[key].absent
        else:
            assert np.array_equal(loaded[key].vector, emb.vector)
            assert loaded[key].n_sentences == emb.n_sentences


def test_interrupted_sidecar_save_keeps_the_previous_sidecar(tmp_path, hashed_provider):
    annotations = {
        f"a{i}": Annotation(f"a{i}", claim=("alpha beta",), what=("gamma",), why=("delta",))
        for i in range(3)
    }
    embeddings = embed_annotations(annotations, hashed_provider)
    path = tmp_path / "embeddings.jsonl"
    save_embeddings(embeddings, path, dim=64)
    before = {path.name: path.read_bytes()}
    with pytest.raises(KeyboardInterrupt):
        save_embeddings(Interrupted(embeddings, at=("a2", "claim")), path, dim=64)
    assert_unchanged(before, tmp_path)
    assert len(load_embeddings(path)[0]) == 9


def test_pipeline_stages_hold_what_the_store_reloads(tmp_path):
    """run_all analyses the annotations and embeddings it keeps in memory, not
    the store files it writes; both must be equal, vectors bit for bit."""
    corpus = make_corpus(make_articles(120, seed=5))
    cfg = RunConfig(cache_dir=str(tmp_path / "cache"))
    annotations = pipeline.annotate(cfg, corpus, tmp_path)
    embeddings = pipeline.embed(cfg, annotations, tmp_path)

    reloaded = load_annotations(tmp_path / pipeline.ANNOTATIONS_FILE)
    assert reloaded == annotations
    for article_id, ann in annotations.items():
        assert list(reloaded[article_id].entities.items()) == list(ann.entities.items())

    loaded, dim = load_embeddings(tmp_path / pipeline.EMBEDDINGS_FILE)
    assert dim == cfg.embedding_dim
    assert set(loaded) == set(embeddings)
    for key, emb in embeddings.items():
        got = loaded[key]
        assert (got.article_id, got.tag) == (emb.article_id, emb.tag)
        assert got.n_sentences == emb.n_sentences
        assert got.absent == emb.absent
        if not emb.absent:
            assert got.vector.dtype == emb.vector.dtype
            assert got.vector.tobytes() == emb.vector.tobytes()


def sidecar_row(**fields):
    row = {"article_id": "a", "tag": "claim", "n_sentences": 1, "vector": [0.0, 1.0, 0.0, 0.0]}
    return json.dumps({**row, **fields})


# Line number -> the damaged text put there, in a header + two-row sidecar.
DAMAGED_SIDECAR_LINES = {
    "dim-overflow": (1, '{"kind": "header", "dim": 1e400}'),
    "dim-float": (1, '{"kind": "header", "dim": 4.0}'),
    "n-sentences-overflow": (3, sidecar_row(n_sentences=None).replace("null", "1e400")),
    "n-sentences-infinity": (3, sidecar_row(n_sentences=float("inf"))),
    "n-sentences-string": (3, sidecar_row(n_sentences="1")),
    "nan-vector": (3, sidecar_row(vector=[float("nan"), 0.0, 0.0, 1.0])),
    "huge-int-vector": (3, sidecar_row(vector=[10**400, 0.0, 0.0, 1.0])),
    "scalar-vector": (3, sidecar_row(vector=3)),
    "article-id-int": (3, sidecar_row(article_id=3)),
    "tag-list": (3, sidecar_row(tag=["claim"])),
    "not-utf8": (3, sidecar_row().encode("utf-8").replace(b"claim", b"cl\xffim")),
    "article-id-unpaired-surrogate": (3, sidecar_row(article_id="a\ud800")),
}


@pytest.mark.parametrize(
    "line_no, line", DAMAGED_SIDECAR_LINES.values(), ids=DAMAGED_SIDECAR_LINES
)
def test_damaged_sidecar_line_names_itself(tmp_path, line_no, line):
    """A sidecar line that is not a row is a ValueError naming the file and
    the line, never a row loaded with a mistyped or non-finite field."""
    lines = ['{"kind": "header", "dim": 4}', sidecar_row(tag="what"), sidecar_row()]
    lines[line_no - 1] = line
    path = tmp_path / "embeddings.jsonl"
    path.write_bytes(b"".join(
        (entry if isinstance(entry, bytes) else entry.encode("utf-8")) + b"\n" for entry in lines
    ))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line_no}: not a valid row"):
        load_embeddings(path)


def test_sidecar_dimension_header_is_enforced(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"kind": "header", "dim": 4}\n'
        '{"article_id": "a", "tag": "claim", "n_sentences": 1, "vector": [1.0, 0.0]}\n'
    )
    with pytest.raises(ValueError):
        load_embeddings(path)


def http_embedder(dim=4):
    return HttpEmbeddingProvider(
        "http://embed.test/v1", dim=dim, max_retries=2, retry_base_seconds=0.0
    )


MALFORMED_EMBEDDING_BODIES = {
    "top-level-array": [[0.0, 0.0, 0.0, 1.0]],
    "dict-cell": {"vectors": [[{"x": 1.0}, 0.0, 0.0, 0.0]]},
    "huge-integer": {"vectors": [[10**400, 0.0, 0.0, 1.0]]},
}


@pytest.mark.parametrize(
    "body", MALFORMED_EMBEDDING_BODIES.values(), ids=MALFORMED_EMBEDDING_BODIES
)
def test_http_embedder_malformed_body_fails_the_batch(stub_post, body):
    stub_post(StubResponse(200, body))
    provider = http_embedder()
    with pytest.raises(ProviderCallError, match="after retries"):
        provider.embed(["alpha"])
    assert provider.calls == 3


@pytest.mark.parametrize(
    "body", MALFORMED_EMBEDDING_BODIES.values(), ids=MALFORMED_EMBEDDING_BODIES
)
def test_http_embedder_malformed_body_marks_tags_absent(stub_post, body):
    stub_post(StubResponse(200, body))
    annotations = {"a1": Annotation("a1", claim=("alpha",), what=("beta",), why=())}
    embeddings = embed_annotations(annotations, http_embedder())
    assert all(emb.absent for emb in embeddings.values())


def test_http_embedder_retries_5xx_then_succeeds(stub_post):
    stub_post(
        StubResponse(503, {"error": "busy"}),
        StubResponse(200, {"vectors": [[0.0, 1.0, 0.0, 0.0]]}),
    )
    provider = http_embedder()
    np.testing.assert_array_equal(provider.embed(["alpha"]), [[0.0, 1.0, 0.0, 0.0]])
    assert provider.calls == 2


def test_http_embedder_nan_vector_is_absent_and_sidecar_stays_json(stub_post, tmp_path):
    stub_post(StubResponse(200, {"vectors": [[float("nan"), 1.0, 0.0, 0.0]]}))
    annotations = {"a1": Annotation("a1", claim=("alpha",), what=(), why=())}
    embeddings = embed_annotations(annotations, http_embedder())
    assert embeddings[("a1", "claim")].absent
    save_embeddings(embeddings, tmp_path / "emb.jsonl", dim=4)
    assert "NaN" not in (tmp_path / "emb.jsonl").read_text()


# Both HTTP providers follow one failure policy: each maker is paired with
# one request through the provider it makes.
HTTP_REQUESTS = {
    "embedder": (http_embedder, lambda provider: provider.embed(["alpha"])),
    "chat": (http_chat, lambda provider: provider.complete("prompt", prompts.CLAIM)),
}
FAILURE_KINDS = {
    "connection-error": (
        ConnectionRefusedError("refused"), ProviderUnreachableError, 3
    ),
    "401": (StubResponse(401, {"error": "bad key"}), ProviderCallError, 1),
    "429": (StubResponse(429, {"error": "slow down"}), ProviderCallError, 3),
    "503": (StubResponse(503, {"error": "busy"}), ProviderCallError, 3),
}


@pytest.mark.parametrize(
    "make, send, reply, error, calls",
    [
        pytest.param(make, send, *case, id=kind if who == "embedder" else f"{who}-{kind}")
        for who, (make, send) in HTTP_REQUESTS.items()
        for kind, case in FAILURE_KINDS.items()
    ],
)
def test_http_embedder_failure_kinds(stub_post, make, send, reply, error, calls):
    stub_post(reply)
    provider = make()
    with pytest.raises(error) as info:
        send(provider)
    assert type(info.value) is error
    assert provider.calls == calls


@pytest.mark.parametrize("make, send", HTTP_REQUESTS.values(), ids=HTTP_REQUESTS)
def test_http_embedder_last_attempt_decides_unreachable(stub_post, make, send):
    stub_post(ConnectionRefusedError("refused"), StubResponse(503, {}))
    provider = make()
    with pytest.raises(ProviderCallError, match="HTTP 503"):
        send(provider)
    assert provider.calls == 3


def test_http_embedder_retry_delays_follow_the_request(stub_post, monkeypatch):
    """Two 503s, then vectors, for every request: a request's backoff delays
    are the same whether it is sent first or after another that retried."""
    attempts = {}

    def reply(body):
        texts = tuple(body["texts"])
        attempts[texts] = attempts.get(texts, 0) + 1
        if attempts[texts] <= 2:
            return StubResponse(503, {"error": "busy"})
        return StubResponse(200, {"vectors": [[1.0, 0.0, 0.0, 0.0]] * len(texts)})

    def delays(*requests_texts):
        attempts.clear()
        slept = []
        monkeypatch.setattr(providers.time, "sleep", slept.append)
        provider = HttpEmbeddingProvider(
            "http://embed.test/v1", dim=4, retry_base_seconds=1.0, seed=7
        )
        for texts in requests_texts:
            provider.embed(texts)
        return slept

    stub_post(reply)
    first = delays(["beta"])
    second = delays(["alpha"], ["beta"])
    assert len(first) == 2 and len(second) == 4
    assert second[2:] == first
    assert second[:2] != first  # the jitter differs per request


def test_unreachable_embedder_aborts_embed_annotations(stub_post):
    stub_post(ConnectionRefusedError("refused"))
    annotations = {
        "a1": Annotation("a1", claim=("alpha",), what=(), why=()),
        "a2": Annotation("a2", claim=("beta",), what=(), why=()),
    }
    provider = http_embedder()
    with pytest.raises(ProviderUnreachableError):
        embed_annotations(annotations, provider)
    assert provider.calls == 3  # the first batch only


def test_unreachable_embedder_aborts_run_all_after_annotations(stub_post, monkeypatch, tmp_path):
    stub_post(ConnectionRefusedError("refused"))
    monkeypatch.setattr(providers.time, "sleep", lambda seconds: None)  # no backoff waits
    write_corpus_file(make_articles(12, seed=3), tmp_path / "input.jsonl")
    cfg = RunConfig(
        input_file=str(tmp_path / "input.jsonl"),
        cache_dir=str(tmp_path / "cache"),
        embedding_kind="http",
        embedding_endpoint="http://embed.test/v1",
    )
    with pytest.raises(ProviderUnreachableError):
        pipeline.run_all(cfg, tmp_path / "store", tmp_path / "out")
    assert len(load_annotations(tmp_path / "store" / pipeline.ANNOTATIONS_FILE)) == 12
    assert not (tmp_path / "store" / pipeline.EMBEDDINGS_FILE).exists()
    assert not (tmp_path / "out" / "similarity.csv").exists()


def test_one_poisoned_text_in_a_full_batch_fails_only_its_tag():
    """Texts of many (article, tag) groups share a request; a failed request
    is split until the poisoned group is alone, and every other tag's vector
    is bit-identical to embedding that tag on its own."""

    class PoisonEmbedder(HashedEmbeddingProvider):
        def __init__(self):
            super().__init__(dim=64)
            self.batch_sizes = []

        def embed(self, texts):
            self.batch_sizes.append(len(texts))
            if any("poison" in t for t in texts):
                raise ProviderCallError("batch rejected")
            return super().embed(texts)

    # 40 articles of 4 texts: the first 32 fill one batch of 128.
    annotations = {
        f"a{i:02d}": Annotation(
            f"a{i:02d}",
            claim=(f"Claim {i} went viral.", f"It named senator {i}."),
            what=("poison pill",) if i == 7 else (f"What {i} happened.",),
            why=(f"Because of post {i}.",),
        )
        for i in range(40)
    }
    provider = PoisonEmbedder()
    embeddings = embed_annotations(annotations, provider)
    assert provider.batch_sizes[0] == 128
    # Halving 96 groups takes 7 levels of two requests: 2 batches + 14.
    assert len(provider.batch_sizes) == 2 + 2 * 7
    assert [key for key, emb in embeddings.items() if emb.absent] == [("a07", "what")]
    assert len(embeddings) == 40 * 3

    unbatched = HashedEmbeddingProvider(dim=64)
    for (article_id, tag), emb in embeddings.items():
        if emb.absent:
            continue
        sentences = annotations[article_id].sentences(tag)
        expected = aggregate_tag(embed_sentences(list(sentences), unbatched))
        assert np.array_equal(emb.vector, expected)
        assert emb.n_sentences == len(sentences)


class FloatEmbedder:
    """Vectors of arbitrary floats, a pure function of the text: a sentence
    "cancel- x" is the negation of "cancel+ x", "nan x" and "inf x" hold a
    non-finite coordinate, and "huge x" overflows any sum of two."""

    dim = 7
    name = "float"

    def embed(self, texts):
        return np.array([self.vector(t) for t in texts])

    def vector(self, text):
        if text.startswith("cancel-"):
            return -self.vector("cancel+" + text[len("cancel-"):])
        seed = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")
        rng = np.random.default_rng(seed)
        vec = rng.standard_normal(self.dim) * 10.0 ** rng.integers(-3, 4)
        if text.startswith(("nan", "inf")):
            vec[int(rng.integers(self.dim))] = float(text[:3])
        if text.startswith("huge"):
            vec[:] = 1e308
        return vec


@pytest.mark.filterwarnings("ignore:overflow encountered")  # the "overflow" group
def test_embed_annotations_pools_each_group_as_aggregate_tag():
    """Groups of 1 to 8 sentences pooled together in shared requests give,
    group by group, the bits of aggregate_tag and of the mean-then-normalize
    rule written out here; zero-mean and non-finite groups are absent."""
    rnd = random.Random(5)
    degenerate = {
        "zero": ("cancel+ a", "cancel- a"),
        "zero-of-four": ("cancel+ b", "cancel- b", "cancel- b", "cancel+ b"),
        "nan": ("nan c", "s2"),
        "inf": ("s3", "inf d", "s4"),
        "overflow": ("huge e", "huge f"),
    }
    annotations = {}
    for i in range(120):
        groups = [
            tuple(f"s{rnd.randrange(400)}" for _ in range(rnd.randint(1, 8)))
            for _ in range(3)
        ]
        annotations[f"a{i:03d}"] = Annotation(f"a{i:03d}", *groups)
    for name, sentences in degenerate.items():
        annotations[f"d-{name}"] = Annotation(f"d-{name}", claim=sentences, what=("s9",))

    provider = FloatEmbedder()
    embeddings = embed_annotations(annotations, provider)
    assert len(embeddings) == 3 * len(annotations)
    for (article_id, tag), emb in embeddings.items():
        sentences = annotations[article_id].sentences(tag)
        if not sentences:
            assert emb.absent
            continue
        rows = provider.embed(list(sentences))
        mean = rows.mean(axis=0)
        norm = float(np.linalg.norm(mean))
        if article_id.startswith("d-") and tag == "claim":
            assert emb.absent and emb.n_sentences == 0
            assert aggregate_tag(rows) is None
            assert norm == 0.0 or not math.isfinite(norm)
            continue
        assert emb.n_sentences == len(sentences)
        assert emb.vector.tobytes() == aggregate_tag(rows).tobytes()
        assert emb.vector.tobytes() == (mean / norm).tobytes()


def test_bisection_retries_only_the_whole_request_and_the_isolated_tag(stub_post, monkeypatch):
    """One text always gets HTTP 503 among 42 articles x 3 tags: the whole
    request and the isolated (article, tag) are retried in full, the levels
    in between are sent once. Every other tag keeps its vector."""
    hashed = HashedEmbeddingProvider(dim=64)  # three tokens a text: never the zero vector

    def reply(body):
        if any("poison" in text for text in body["texts"]):
            return StubResponse(503, {"error": "busy"})
        return StubResponse(200, {"vectors": hashed.embed(body["texts"]).tolist()})

    slept = []
    monkeypatch.setattr(providers.time, "sleep", slept.append)
    stub_post(reply)
    annotations = {
        f"a{i:02d}": Annotation(
            f"a{i:02d}", claim=(f"Claim {i} spread.",),
            what=("one poison pill",) if i == 20 else (f"What {i} said.",),
            why=(f"Why {i} mattered.",),
        )
        for i in range(42)
    }
    provider = HttpEmbeddingProvider("http://embed.test/v1", dim=64, seed=0)
    embeddings = embed_annotations(annotations, provider)

    # 126 texts in one request; halving to the poisoned group takes 7 levels.
    # 4 sends of the whole request, 2 per level in between (6 levels), then
    # the poisoned group's 4 and its sibling's 1: 21, with 2 x 3 backoffs.
    assert provider.calls == 21
    assert len(slept) == 2 * provider.max_retries
    assert [key for key, emb in embeddings.items() if emb.absent] == [("a20", "what")]
    for (article_id, tag), emb in embeddings.items():
        if not emb.absent:
            sentences = list(annotations[article_id].sentences(tag))
            assert np.array_equal(emb.vector, aggregate_tag(hashed.embed(sentences)))


def test_transport_error_inside_a_split_is_left_to_the_retry_policy(stub_post, monkeypatch):
    """A level between the whole request and an isolated tag is sent once; a
    transport error there is not an outage until the provider's own retries
    say so, so the run goes on and every tag keeps its vector."""
    hashed = HashedEmbeddingProvider(dim=64)
    seen = set()

    def reply(body):
        texts = tuple(body["texts"])
        if len(texts) == 4:  # the whole request keeps failing
            return StubResponse(503, {"error": "busy"})
        if len(texts) == 2 and texts not in seen:  # each half drops once
            seen.add(texts)
            return ConnectionResetError("reset")
        return StubResponse(200, {"vectors": hashed.embed(texts).tolist()})

    monkeypatch.setattr(providers.time, "sleep", lambda seconds: None)
    stub_post(reply)
    annotations = {
        f"a{i}": Annotation(f"a{i}", claim=(f"Claim {i} spread.",), what=(), why=())
        for i in range(4)
    }
    provider = HttpEmbeddingProvider("http://embed.test/v1", dim=64, seed=0)
    embeddings = embed_annotations(annotations, provider)
    assert not any(emb.absent for key, emb in embeddings.items() if key[1] == "claim")
    assert provider.calls == 4 + 2 * 2  # each half: one send, then one under the policy
