"""Span recorder for one traced ``run_all``, installed from outside the program.

``Tracer.install`` replaces the public functions of each factlens module
with wrappers that record a span (id, parent, name, start, end) per call.
Nothing under ``src/`` changes: the wrappers are set on the module or class
attribute that the pipeline looks up at call time. Spans stay in memory;
``layer_metrics`` turns them into the per-layer figures after the run.
"""

from __future__ import annotations

import bisect
import functools
import math
import os
import time
from collections import defaultdict

from fake_provider import CHAT_DELAY_S


def _targets(fl):
    """(owner, attribute, span name, keep call) for every traced function."""
    p, c, a, pr, s, en, po, r = (
        fl.pipeline, fl.corpus, fl.annotation, fl.providers,
        fl.similarity, fl.entities, fl.polarity, fl.report,
    )
    return [
        (p, "run_all", "pipeline.run_all", False),
        (c, "ingest", "corpus.ingest", True),
        (c, "write_store", "corpus.write_store", False),
        (p, "annotate_corpus", "annotation.annotate_corpus", False),
        (a.ResponseCache, "get", "annotation.cache_get", True),
        (a.ResponseCache, "put", "annotation.cache_put", False),
        (p, "save_annotations", "annotation.save_annotations", False),
        (p, "load_annotations", "annotation.load_annotations", False),
        (pr.HttpChatProvider, "complete", "providers.chat", False),
        (pr.HttpEmbeddingProvider, "embed", "providers.embed", False),
        (pr.HashedEmbeddingProvider, "embed", "providers.embed", False),
        (p, "embed_annotations", "embedding.embed_annotations", True),
        (p, "save_embeddings", "embedding.save_embeddings", True),
        (p, "load_embeddings", "embedding.load_embeddings", False),
        (p, "org_vectors", "similarity.org_vectors", False),
        (p, "windowed_max_similarity", "similarity.windowed_max_similarity", True),
        (s, "bootstrap_median_ci", "similarity.bootstrap_median_ci", True),
        (en, "org_mentions", "entities.org_mentions", False),
        (en, "top_k_entities", "entities.top_k_entities", False),
        (en, "windowed_jaccard", "entities.windowed_jaccard", True),
        (po, "org_polarity", "polarity.org_polarity", False),
        (po, "polarity_rows", "polarity.polarity_rows", False),
        (r, "export_table", "report.export_table", False),
        (r, "render_polarity_chart", "report.render_polarity_chart", False),
    ]


class Tracer:
    """Records nested spans of one run; single-threaded, like the pipeline."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float, bool]] = []
        self.kept: list[tuple[str, tuple, dict, object]] = []
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, fn, name: str, keep: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, name, start, end, failed))
            if keep:
                self.kept.append((name, args, kwargs, result))
            return result

        return traced

    def install(self, fl) -> None:
        """Wrap every traced function of the imported ``factlens`` package.

        A function the package no longer has is skipped; its figures read 0.
        """
        for owner, attr, name, keep in _targets(fl):
            if hasattr(owner, attr):
                setattr(owner, attr, self.wrap(getattr(owner, attr), name, keep))

    def self_times(self) -> dict[int, float]:
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return {sid: end - start - child_time[sid] for sid, _, _, start, end, _ in self.spans}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced run (times in seconds)."""
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    errors: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = defaultdict(float)
    selfs = tracer.self_times()
    for sid, _, name, start, end, failed in tracer.spans:
        total[name] += end - start
        calls[name] += 1
        errors[name] += failed
        layer_self[name.split(".")[0]] += selfs[sid]

    articles = rejections = hits = misses = 0
    candidates = draws = matched = x_embedded = window_days = kept_days = 0
    tags_embedded = tags_absent = 0
    sidecar_bytes = 0
    for name, args, kwargs, result in tracer.kept:
        if name == "corpus.ingest":
            articles += len(result.corpus)
            rejections += len(result.rejections)
        elif name == "annotation.cache_get":
            if result is None:
                misses += 1
            else:
                hits += 1
        elif name == "embedding.embed_annotations":
            absent = sum(1 for emb in result.values() if emb.absent)
            tags_absent += absent
            tags_embedded += len(result) - absent
        elif name == "embedding.save_embeddings":
            sidecar_bytes += os.path.getsize(_arg(args, kwargs, 1, "path"))
        elif name == "similarity.windowed_max_similarity":
            xs, ys, cfg = args[0], args[1], _arg(args, kwargs, 2, "cfg")
            candidates += _candidate_pairs(xs, ys, cfg.window_days)
            matched += len(result.matched_values)
            x_embedded += result.n_embedded
        elif name == "similarity.bootstrap_median_ci":
            values, cfg = args[0], _arg(args, kwargs, 1, "cfg")
            draws += cfg.bootstrap_resamples * max(1, math.ceil(cfg.bootstrap_fraction * len(values)))
        elif name == "entities.windowed_jaccard":
            window_days += len({date for date, _ in args[0]})
            kept_days += len(result.days)

    chat_calls = calls["providers.chat"]
    lookups = hits + misses
    return {
        "corpus.articles": articles,
        "corpus.rejections": rejections,
        "corpus.ingest_s": total["corpus.ingest"],
        "corpus.write_store_s": total["corpus.write_store"],
        "corpus.self_s": layer_self["corpus"],
        "annotation.annotate_s": total["annotation.annotate_corpus"],
        "annotation.cache_lookups": lookups,
        "annotation.cache_hits": hits,
        "annotation.cache_misses": misses,
        "annotation.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "annotation.cache_get_s": total["annotation.cache_get"],
        "annotation.cache_put_s": total["annotation.cache_put"],
        "annotation.store_roundtrip_s": (
            total["annotation.save_annotations"] + total["annotation.load_annotations"]
        ),
        "annotation.self_s": layer_self["annotation"],
        "providers.chat_calls": chat_calls,
        "providers.chat_s": total["providers.chat"],
        "providers.chat_overhead_s": total["providers.chat"] - chat_calls * CHAT_DELAY_S,
        "providers.chat_failures": errors["providers.chat"],
        "providers.embed_calls": calls["providers.embed"],
        "providers.embed_s": total["providers.embed"],
        "providers.self_s": layer_self["providers"],
        "embedding.embed_s": total["embedding.embed_annotations"],
        "embedding.tags_embedded": tags_embedded,
        "embedding.tags_absent": tags_absent,
        "embedding.sidecar_s": (
            total["embedding.save_embeddings"] + total["embedding.load_embeddings"]
        ),
        "embedding.sidecar_bytes": sidecar_bytes,
        "embedding.self_s": layer_self["embedding"],
        "similarity.org_vectors_s": total["similarity.org_vectors"],
        "similarity.windowed_s": total["similarity.windowed_max_similarity"],
        "similarity.bootstrap_s": total["similarity.bootstrap_median_ci"],
        "similarity.calls": calls["similarity.windowed_max_similarity"],
        "similarity.candidate_pairs": candidates,
        "similarity.bootstrap_draws": draws,
        "similarity.x_embedded": x_embedded,
        "similarity.matched": matched,
        "similarity.match_ratio": matched / x_embedded if x_embedded else 0.0,
        "similarity.self_s": layer_self["similarity"],
        "entities.mentions_s": total["entities.org_mentions"],
        "entities.top_k_s": total["entities.top_k_entities"],
        "entities.windowed_jaccard_s": total["entities.windowed_jaccard"],
        "entities.window_days": window_days,
        "entities.kept_days": kept_days,
        "entities.self_s": layer_self["entities"],
        "polarity.org_polarity_s": total["polarity.org_polarity"],
        "polarity.orgs": calls["polarity.org_polarity"],
        "polarity.orgs_skipped": errors["polarity.org_polarity"],
        "polarity.self_s": layer_self["polarity"],
        "report.export_s": total["report.export_table"],
        "report.chart_s": total["report.render_polarity_chart"],
        "report.self_s": layer_self["report"],
        "pipeline.self_s": layer_self["pipeline"],
        "trace.spans": len(tracer.spans),
    }


def _candidate_pairs(xs, ys, window_days: int) -> int:
    """In-window (x, y) pairs among embedded articles, as the kernel sees them."""
    y_days = sorted(y.date.toordinal() for y in ys if y.vector is not None)
    count = 0
    for x in xs:
        if x.vector is None:
            continue
        day = x.date.toordinal()
        count += bisect.bisect_right(y_days, day + window_days) - bisect.bisect_left(
            y_days, day - window_days
        )
    return count
