"""End-to-end pipeline: ingest through annotation, embeddings, similarity,
entity overlap, polarity, and rendered reports, in one deterministic run.

Each stage is one function, called by run_all and by the stage's CLI
subcommand alike. Every output is a pure function of (corpus, config), so
two runs over the same inputs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from . import corpus as corpus_mod
from . import entities as ent_mod
from . import polarity as pol_mod
from . import report
from .annotation import Annotation, annotate_corpus, save_annotations
from .config import ConfigError, RunConfig, serialize_config
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


def _check_directory(name: str, path: str | Path) -> None:
    """Refuse, naming it, a directory that is a file or lies under one: the
    directory or, if not yet made, its nearest existing ancestor must be a
    directory."""
    p = Path(path)
    if not next(q for q in (p, *p.parents) if q.exists()).is_dir():
        raise ConfigError(f"{name}: {str(path)!r} is not a directory")


def check_paths(cfg: RunConfig) -> None:
    """Refuse, naming its key, a path setting that names the wrong kind of
    file: run_all calls this before ingest writes, and so do the subcommands
    that read these paths. A missing fixture directory would fail every tag."""
    _check_directory("cache_dir", cfg.cache_dir)
    if cfg.aliases_file and not Path(cfg.aliases_file).is_file():
        raise ConfigError(f"aliases_file: {cfg.aliases_file!r} is not a file")
    if cfg.provider_kind == "fixtures" and not Path(cfg.provider_fixtures_dir).is_dir():
        raise ConfigError(
            f"provider_fixtures_dir: {cfg.provider_fixtures_dir!r} is not a directory"
        )


def build_chat_provider(cfg: RunConfig):
    if cfg.provider_kind == "synthetic":
        return SyntheticChatProvider(model_name=cfg.provider_model)
    if cfg.provider_kind == "fixtures":
        return FixtureChatProvider(cfg.provider_fixtures_dir, model_name=cfg.provider_model)
    return HttpChatProvider(cfg.provider_config(), api_key=cfg.api_key, seed=cfg.seed)


def build_embedding_provider(cfg: RunConfig):
    if cfg.embedding_kind == "hashed":
        return HashedEmbeddingProvider(dim=cfg.embedding_dim)
    return HttpEmbeddingProvider(
        cfg.embedding_endpoint, cfg.embedding_dim, cfg.provider_max_retries, cfg.seed
    )


# The longest escaped name, in UTF-8 bytes, used as is: with two of them,
# "{x}-{y}-{tag}.json" stays within the usual 255-byte file-name limit.
_NAME_BYTES = 120


def _escaped(name: str) -> str:
    """name as one flat file-name part: '%', '-', path separators, control
    characters and a leading '.' become %XX, so no two names collide.

    An escaped name over _NAME_BYTES becomes a prefix of it, '%%' and the
    SHA-256 of the name; escaping never yields '%%', so this form cannot
    collide with a short name either.
    """
    escaped = "".join(
        f"%{ord(ch):02X}"
        if ch in "%-/\\" or ord(ch) < 32 or 127 <= ord(ch) < 160 or (ch == "." and i == 0)
        else ch
        for i, ch in enumerate(name)
    )
    raw = escaped.encode("utf-8", "surrogatepass")
    if len(raw) <= _NAME_BYTES:
        return escaped
    digest = hashlib.sha256(name.encode("utf-8", "surrogatepass")).hexdigest()
    prefix = raw[: _NAME_BYTES - len(digest) - 2].decode("utf-8", "ignore")
    return f"{prefix}%%{digest}"


def _org_pairs(corpus: corpus_mod.Corpus) -> list[tuple[str, str]]:
    """Ordered org pairs within each country, in sorted order."""
    by_country: dict[str, list[str]] = {}
    for org in corpus.orgs():
        by_country.setdefault(corpus.by_org(org)[0].country, []).append(org)
    pairs: list[tuple[str, str]] = []
    for country in sorted(by_country):
        pairs.extend(itertools.permutations(sorted(by_country[country]), 2))
    return pairs


def ingest(cfg: RunConfig, store: Path) -> tuple[corpus_mod.Corpus, int]:
    """The corpus of cfg.input_file, ingested into the store, or else the
    store's own; with the number of input records rejected."""
    if not cfg.input_file:
        corpus = corpus_mod.load_store(store)
        logger.info("loaded %d articles from store", len(corpus))
        return corpus, 0
    result = corpus_mod.ingest(cfg.input_file, (cfg.date_from, cfg.date_to))
    corpus_mod.write_store(result, store)
    logger.info("ingested %d articles (%d rejected)", len(result.corpus), len(result.rejections))
    return result.corpus, len(result.rejections)


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
) -> Iterator[SimilarityResult]:
    """Windowed max similarity per org pair and tag, pair-major, computed
    as the iterator is consumed.

    The per-(org, tag) vectors are built now; the iterator holds them, not
    corpus or embeddings, and drops them when it is exhausted.
    """
    vectors = {
        (org, tag): org_vectors(corpus, embeddings, org, tag)
        for org in sorted({org for pair in pairs for org in pair})
        for tag in tags
    }
    return (
        windowed_max_similarity(
            vectors[org_x, tag], vectors[org_y, tag],
            cfg.analysis, org_x=org_x, org_y=org_y, tag=tag,
        )
        for org_x, org_y in pairs
        for tag in tags
    )


def _export_similarity(results: Iterable[SimilarityResult], out: Path) -> int:
    """Each result's JSON written as it arrives, then similarity.csv; returns
    the number of results. No result outlives its turn of the loop."""
    rows = []
    for res in results:
        payload = res.to_json_dict()
        report.export_table(
            [payload], "json",
            out / "similarity" / f"{_escaped(res.org_x)}-{_escaped(res.org_y)}-{res.tag}.json",
        )
        rows.append({key: payload[key] for key in SIMILARITY_COLUMNS})
    report.export_table(rows, "csv", out / "similarity.csv", SIMILARITY_COLUMNS)
    return len(rows)


def entity_views(
    cfg: RunConfig, corpus: corpus_mod.Corpus, annotations: dict[str, Annotation],
    orgs: Iterable[str],
) -> dict[str, ent_mod.Mentions]:
    """Each org's entity view, which overlap and polarity read, canonical by
    cfg.aliases_file's alias map (without one, every entity is political)."""
    if cfg.aliases_file:
        aliases = load_aliases_csv(cfg.aliases_file)
    else:
        logger.info("no aliases file configured; treating every entity as political")
        aliases = AliasMap.empty()
    return {org: ent_mod.org_mentions(corpus, annotations, aliases, org) for org in orgs}


def entity_overlap(
    cfg: RunConfig,
    mentions: dict[str, ent_mod.Mentions],
    pairs: list[tuple[str, str]],
) -> tuple[dict[str, ent_mod.EntitySet], list[dict]]:
    """Each paired org's top-k entity set, and per pair the global top-k
    Jaccard plus the windowed distribution."""
    tops = {
        org: ent_mod.entity_set(
            (labels for _, labels in mentions[org]), cfg.top_k_entities, org=org
        )
        for org in sorted({org for pair in pairs for org in pair})
    }
    overlaps = []
    # Each org's window sets, shared by its pairs and dropped after its last.
    windows: dict[str, ent_mod.WindowTopK] = {}
    last = {org: i for i, pair in enumerate(pairs) for org in pair}
    for i, (org_x, org_y) in enumerate(pairs):
        windowed = ent_mod.windowed_jaccard(
            mentions[org_x], mentions[org_y],
            cfg.top_k_entities, cfg.window_days,
            org_x=org_x, org_y=org_y, windows=windows,
        )
        for org in {org_x, org_y}:
            if last[org] == i:
                del windows[org]
        overlaps.append(
            {
                "org_x": org_x, "org_y": org_y,
                "top_k": cfg.top_k_entities,
                "window_days": cfg.window_days,
                "global_jaccard": ent_mod.jaccard(tops[org_x].names(), tops[org_y].names()),
                "windowed_median": windowed.median,
                "windowed_days": [d.isoformat() for d in windowed.days],
                "windowed_values": list(windowed.values),
            }
        )
    return tops, overlaps


def polarity(
    cfg: RunConfig, mentions: dict[str, ent_mod.Mentions]
) -> tuple[list[pol_mod.OrgPolarity], dict[str, str]]:
    """Polarity per organization, plus the reason for each org skipped for lack of support."""
    results: list[pol_mod.OrgPolarity] = []
    skipped: dict[str, str] = {}
    for org, view in mentions.items():
        try:
            results.append(
                pol_mod.score_org(view, org, cfg.top_k_polarity, cfg.precisions, cfg.min_support)
            )
        except ValueError as exc:
            skipped[org] = str(exc)
    return results, skipped


def _export_entities(overlaps: list[dict], out: Path) -> None:
    """Each pair's JSON, then entities.csv."""
    rows = []
    for payload in overlaps:
        report.export_table(
            [payload], "json",
            out / "entities" / f"{_escaped(payload['org_x'])}-{_escaped(payload['org_y'])}.json",
        )
        rows.append({**payload, "n_days": len(payload["windowed_days"])})
    report.export_table(rows, "csv", out / "entities.csv", JACCARD_COLUMNS)


def _export_polarity(cfg: RunConfig, org_results: list[pol_mod.OrgPolarity], out: Path) -> None:
    """polarity.csv and .json, org_polarity.csv and the chart of each org's top entities."""
    rows = [row for res in org_results for row in pol_mod.polarity_rows(res.entities)]
    report.export_table(rows, "csv", out / "polarity.csv", POLARITY_COLUMNS)
    report.export_table(rows, "json", out / "polarity.json")
    org_rows = [
        {"org": res.org, "micro_ps": res.micro_ps, "macro_ps": res.macro_ps,
         "n_entities": len(res.entities)}
        for res in org_results
    ]
    report.export_table(org_rows, "csv", out / "org_polarity.csv", ORG_COLUMNS)
    chart_rows = [
        row for res in org_results
        for row in pol_mod.polarity_rows(res.entities[: cfg.top_k_polarity])
    ]
    svg = report.render_polarity_chart(chart_rows, title="Entity polarity by organization")
    report.write_output(out / "charts" / "polarity.svg", svg)


@dataclass(frozen=True)
class PipelineSummary:
    n_articles: int
    n_rejections: int
    n_annotations: int
    n_similarity_results: int
    n_org_reports: int
    out_dir: Path


def run_all(cfg: RunConfig, store_dir: str | Path, out_dir: str | Path) -> PipelineSummary:
    """Execute every pipeline stage, writing all artifacts under out_dir.
    A store_dir or out_dir that is a file or lies under one is refused
    before anything is written, named as run-all's --store or --out."""
    check_paths(cfg)
    _check_directory("--store", store_dir)
    _check_directory("--out", out_dir)
    store = Path(store_dir)
    out = Path(out_dir)
    report.write_output(out / "run_config.txt", serialize_config(cfg))

    corpus, n_rejections = ingest(cfg, store)
    # Each stage's inputs are dropped after their last reader.
    annotations = annotate(cfg, corpus, store)
    embeddings = embed(cfg, annotations, store)
    mentions = entity_views(cfg, corpus, annotations, corpus.orgs())
    n_annotations = len(annotations)
    del annotations
    pairs = _org_pairs(corpus)
    results = similarity(cfg, corpus, embeddings, pairs)
    del embeddings
    n_similarity_results = _export_similarity(results, out)
    _export_entities(entity_overlap(cfg, mentions, pairs)[1], out)
    org_results, skipped = polarity(cfg, mentions)
    for org, reason in skipped.items():
        logger.warning("skipping polarity for %s: %s", org, reason)
    _export_polarity(cfg, org_results, out)

    return PipelineSummary(
        n_articles=len(corpus),
        n_rejections=n_rejections,
        n_annotations=n_annotations,
        n_similarity_results=n_similarity_results,
        n_org_reports=len(org_results),
        out_dir=out,
    )
