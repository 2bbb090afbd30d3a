import hashlib

import numpy as np
import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from factlens import pipeline, providers
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
    ProviderUnreachableError,
)
from factlens.synthetic import make_articles
from tests.conftest import StubResponse, make_corpus


def reference_hashed_vector(text: str, dim: int = 64) -> np.ndarray:
    """Independent evaluation of the documented mock hash function."""
    import re

    vec = np.zeros(dim)
    for token in re.findall(r"[a-z0-9']+", text.lower()):
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        idx = int.from_bytes(digest[:4], "big") % dim
        vec[idx] += 1.0 if digest[4] % 2 == 0 else -1.0
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


def test_mock_embedder_deterministic(hashed_provider):
    vectors = embed_sentences(["a", "a"], hashed_provider)
    assert vectors.shape == (2, 64)
    assert np.array_equal(vectors[0], vectors[1])


def test_embed_empty_list(hashed_provider):
    assert embed_sentences([], hashed_provider).shape == (0, 64)


def test_mock_embedder_matches_reference_oracle(hashed_provider):
    vectors = embed_sentences(["a", "b"], hashed_provider)
    assert np.array_equal(vectors[0], reference_hashed_vector("a"))
    assert np.array_equal(vectors[1], reference_hashed_vector("b"))
    assert np.any(vectors[0] != vectors[1])


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


@pytest.mark.parametrize(
    "reply, error, calls",
    [
        (requests.exceptions.ConnectionError("refused"), ProviderUnreachableError, 3),
        (StubResponse(401, {"error": "bad key"}), ProviderCallError, 1),
        (StubResponse(429, {"error": "slow down"}), ProviderCallError, 3),
        (StubResponse(503, {"error": "busy"}), ProviderCallError, 3),
    ],
    ids=["connection-error", "401", "429", "503"],
)
def test_http_embedder_failure_kinds(stub_post, reply, error, calls):
    stub_post(reply)
    provider = http_embedder()
    with pytest.raises(error) as info:
        provider.embed(["alpha"])
    assert type(info.value) is error
    assert provider.calls == calls


def test_http_embedder_last_attempt_decides_unreachable(stub_post):
    stub_post(requests.exceptions.ConnectionError("refused"), StubResponse(503, {}))
    provider = http_embedder()
    with pytest.raises(ProviderCallError, match="HTTP 503"):
        provider.embed(["alpha"])
    assert provider.calls == 3


def test_unreachable_embedder_aborts_embed_annotations(stub_post):
    stub_post(requests.exceptions.ConnectionError("refused"))
    annotations = {
        "a1": Annotation("a1", claim=("alpha",), what=(), why=()),
        "a2": Annotation("a2", claim=("beta",), what=(), why=()),
    }
    provider = http_embedder()
    with pytest.raises(ProviderUnreachableError):
        embed_annotations(annotations, provider)
    assert provider.calls == 3  # the first batch only


def test_unreachable_embedder_aborts_run_all_after_annotations(stub_post, monkeypatch, tmp_path):
    stub_post(requests.exceptions.ConnectionError("refused"))
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
