"""End-to-end pipeline: ingest through annotation, embeddings, similarity,
entity overlap, polarity, and rendered reports, in one deterministic run.

Every output is a pure function of (corpus, config), so two runs over the
same inputs produce byte-identical files.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from pathlib import Path

from . import corpus as corpus_mod
from . import entities as ent_mod
from . import polarity as pol_mod
from . import report
from .annotation import Annotation, annotate_corpus, save_annotations
from .config import RunConfig, serialize_config
from .embedding import SENTENCE_TAGS, TagEmbedding, embed_annotations, save_embeddings
from .entities import AliasMap, load_aliases_csv
from .providers import (
    FixtureChatProvider,
    HashedEmbeddingProvider,
    HttpChatProvider,
    HttpEmbeddingProvider,
    SyntheticChatProvider,
)
from .similarity import SimilarityResult, org_vectors, windowed_max_similarity

logger = logging.getLogger(__name__)

SIMILARITY_COLUMNS = (
    "org_x", "org_y", "tag", "n_embedded", "match_rate",
    "median_matched", "median_all", "ci_low", "ci_high",
)
JACCARD_COLUMNS = ("org_x", "org_y", "global_jaccard", "windowed_median", "n_days")
POLARITY_COLUMNS = (
    "org", "entity", "period", "n_pos", "n_neg", "n_total", "ps", "delta_ps",
)
ORG_COLUMNS = ("org", "micro_ps", "macro_ps", "n_entities")
ANNOTATIONS_FILE = "annotations.jsonl"
EMBEDDINGS_FILE = "embeddings.jsonl"


def build_chat_provider(cfg: RunConfig):
    if cfg.provider_kind == "synthetic":
        return SyntheticChatProvider(model_name=cfg.provider_model)
    if cfg.provider_kind == "fixtures":
        return FixtureChatProvider(cfg.provider_fixtures_dir, model_name=cfg.provider_model)
    return HttpChatProvider(
        cfg.provider_config(), api_key=cfg.api_key, seed=cfg.analysis.seed
    )


def build_embedding_provider(cfg: RunConfig):
    if cfg.embedding_kind == "hashed":
        return HashedEmbeddingProvider(dim=cfg.embedding_dim)
    return HttpEmbeddingProvider(
        cfg.embedding_endpoint, dim=cfg.embedding_dim, seed=cfg.analysis.seed
    )


def load_alias_map(cfg: RunConfig) -> AliasMap:
    if cfg.aliases_file:
        return load_aliases_csv(cfg.aliases_file)
    logger.info("no aliases file configured; treating every entity as political")
    return AliasMap.empty()


def _org_pairs(corpus: corpus_mod.Corpus) -> list[tuple[str, str]]:
    """Ordered org pairs within each country, in sorted order."""
    by_country: dict[str, list[str]] = {}
    for org in corpus.orgs():
        by_country.setdefault(corpus.by_org(org)[0].country, []).append(org)
    pairs: list[tuple[str, str]] = []
    for country in sorted(by_country):
        pairs.extend(itertools.permutations(sorted(by_country[country]), 2))
    return pairs


def annotate(cfg: RunConfig, corpus: corpus_mod.Corpus, store: Path) -> dict[str, Annotation]:
    """Annotate every article (responses cached under cfg.cache_dir); saved to the store."""
    annotations = annotate_corpus(corpus, build_chat_provider(cfg), cfg.provider_config())
    save_annotations(annotations, store / ANNOTATIONS_FILE)
    return annotations


def embed(
    cfg: RunConfig, annotations: dict[str, Annotation], store: Path
) -> dict[tuple[str, str], TagEmbedding]:
    """Embed every annotated (article, tag); saved to the store."""
    embedder = build_embedding_provider(cfg)
    embeddings = embed_annotations(annotations, embedder)
    save_embeddings(
        embeddings, store / EMBEDDINGS_FILE, dim=embedder.dim, provider_name=embedder.name
    )
    return embeddings


def similarity(
    cfg: RunConfig,
    corpus: corpus_mod.Corpus,
    embeddings: dict[tuple[str, str], TagEmbedding],
    pairs: list[tuple[str, str]],
    tags: tuple[str, ...] = SENTENCE_TAGS,
) -> list[SimilarityResult]:
    """Windowed max similarity per org pair and tag, pair-major."""
    vectors = {
        (org, tag): org_vectors(corpus, embeddings, org, tag)
        for org in sorted({org for pair in pairs for org in pair})
        for tag in tags
    }
    return [
        windowed_max_similarity(
            vectors[org_x, tag], vectors[org_y, tag],
            cfg.analysis, org_x=org_x, org_y=org_y, tag=tag,
        )
        for org_x, org_y in pairs
        for tag in tags
    ]


def entity_overlap(
    cfg: RunConfig,
    corpus: corpus_mod.Corpus,
    annotations: dict[str, Annotation],
    aliases: AliasMap,
    pairs: list[tuple[str, str]],
) -> tuple[dict[str, ent_mod.EntitySet], list[dict]]:
    """Each paired org's top-k entity set, and per pair the global top-k
    Jaccard plus the windowed distribution; per-org work is done once."""
    orgs = sorted({org for pair in pairs for org in pair})
    mentions = {
        org: ent_mod.org_mentions(corpus, annotations, aliases, org) for org in orgs
    }
    tops = {
        org: ent_mod.top_k_entities(
            [annotations[a.id] for a in corpus.by_org(org) if a.id in annotations],
            aliases, cfg.top_k_entities, org=org,
        )
        for org in orgs
    }
    overlaps = []
    for org_x, org_y in pairs:
        windowed = ent_mod.windowed_jaccard(
            mentions[org_x], mentions[org_y],
            cfg.top_k_entities, cfg.analysis.window_days,
            org_x=org_x, org_y=org_y,
        )
        overlaps.append(
            {
                "org_x": org_x, "org_y": org_y,
                "top_k": cfg.top_k_entities,
                "window_days": cfg.analysis.window_days,
                "global_jaccard": ent_mod.jaccard(tops[org_x].names(), tops[org_y].names()),
                "windowed_median": windowed.median,
                "windowed_days": [d.isoformat() for d in windowed.days],
                "windowed_values": list(windowed.values),
            }
        )
    return tops, overlaps


def polarity(
    cfg: RunConfig,
    corpus: corpus_mod.Corpus,
    annotations: dict[str, Annotation],
    aliases: AliasMap,
) -> tuple[list[pol_mod.OrgPolarity], dict[str, str]]:
    """Polarity per organization, plus the reason for each org skipped for lack of support."""
    results: list[pol_mod.OrgPolarity] = []
    skipped: dict[str, str] = {}
    for org in corpus.orgs():
        try:
            results.append(
                pol_mod.org_polarity(
                    corpus, annotations, aliases, org,
                    top_k=cfg.top_k_polarity, prec=cfg.precisions,
                    min_support=cfg.min_support,
                )
            )
        except ValueError as exc:
            skipped[org] = str(exc)
    return results, skipped


@dataclass(frozen=True)
class PipelineSummary:
    n_articles: int
    n_rejections: int
    n_annotations: int
    n_similarity_results: int
    n_org_reports: int
    out_dir: Path


def run_all(cfg: RunConfig, store_dir: str | Path, out_dir: str | Path) -> PipelineSummary:
    """Execute every pipeline stage, writing all artifacts under out_dir."""
    store = Path(store_dir)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "run_config.txt").write_text(serialize_config(cfg), encoding="utf-8")

    # Ingest: either a configured raw input file, or a pre-built store.
    n_rejections = 0
    if cfg.input_file:
        result = corpus_mod.ingest(cfg.input_file, (cfg.date_from, cfg.date_to))
        corpus_mod.write_store(result, store)
        corpus = result.corpus
        n_rejections = len(result.rejections)
        logger.info("ingested %d articles (%d rejected)", len(corpus), n_rejections)
    else:
        corpus = corpus_mod.load_store(store)
        logger.info("loaded %d articles from store", len(corpus))

    annotations = annotate(cfg, corpus, store)
    embeddings = embed(cfg, annotations, store)
    aliases = load_alias_map(cfg)
    pairs = _org_pairs(corpus)

    (out / "similarity").mkdir(exist_ok=True)
    sim_rows = []
    for res in similarity(cfg, corpus, embeddings, pairs):
        payload = res.to_json_dict()
        report.export_table(
            [payload], "json", out / "similarity" / f"{res.org_x}-{res.org_y}-{res.tag}.json"
        )
        sim_rows.append({key: payload[key] for key in SIMILARITY_COLUMNS})
    report.export_table(sim_rows, "csv", out / "similarity.csv", SIMILARITY_COLUMNS)

    (out / "entities").mkdir(exist_ok=True)
    js_rows = []
    _, overlaps = entity_overlap(cfg, corpus, annotations, aliases, pairs)
    for payload in overlaps:
        report.export_table(
            [payload], "json", out / "entities" / f"{payload['org_x']}-{payload['org_y']}.json"
        )
        js_rows.append({**payload, "n_days": len(payload["windowed_days"])})
    report.export_table(js_rows, "csv", out / "entities.csv", JACCARD_COLUMNS)

    org_results, skipped = polarity(cfg, corpus, annotations, aliases)
    for org, reason in skipped.items():
        logger.warning("skipping polarity for %s: %s", org, reason)
    pol_rows = [row for res in org_results for row in pol_mod.polarity_rows(res.entities)]
    org_rows = [
        {"org": res.org, "micro_ps": res.micro_ps, "macro_ps": res.macro_ps,
         "n_entities": len(res.entities)}
        for res in org_results
    ]
    chart_rows = [
        {"org": res.org, "entity": r.counts.entity, "ps": r.ps, "delta_ps": r.delta_ps}
        for res in org_results
        for r in res.entities[: cfg.top_k_polarity]
    ]
    report.export_table(pol_rows, "csv", out / "polarity.csv", POLARITY_COLUMNS)
    report.export_table(pol_rows, "json", out / "polarity.json")
    report.export_table(org_rows, "csv", out / "org_polarity.csv", ORG_COLUMNS)

    charts = out / "charts"
    charts.mkdir(exist_ok=True)
    svg = report.render_polarity_chart(chart_rows, title="Entity polarity by organization")
    (charts / "polarity.svg").write_text(svg, encoding="utf-8")

    return PipelineSummary(
        n_articles=len(corpus),
        n_rejections=n_rejections,
        n_annotations=len(annotations),
        n_similarity_results=len(sim_rows),
        n_org_reports=len(org_rows),
        out_dir=out,
    )
