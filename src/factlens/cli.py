"""Command-line interface: ingest, annotate, embed, similarity, entities,
polarity, report, and the run-all pipeline.

The stage subcommands run run-all's pipeline stages on one RunConfig. Their
flags override the settings they name, default to the run.cfg defaults and
pass the same checks.
"""

from __future__ import annotations

import datetime as dt
import logging
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Callable

import click

from . import corpus as corpus_mod
from . import pipeline
from . import polarity as pol_mod
from . import report as report_mod
from .annotation import SENTENCE_TAGS, load_annotations
from .config import (
    DEFAULTS, ConfigError, RunConfig, load_config, override, parse_date, serialize_config,
)
from .embedding import load_embeddings
from .providers import ProviderUnreachableError


def _config(base: Callable[[], RunConfig], **flags) -> RunConfig:
    """base() with each flag given (not None) overriding its setting."""
    return override(base(), **{key: value for key, value in flags.items() if value is not None})


def _org_pair(orgs: str, corpus: corpus_mod.Corpus) -> tuple[str, str]:
    """The --orgs pair X,Y; both must be organizations of the store."""
    try:
        org_x, org_y = [o.strip() for o in orgs.split(",")]
    except ValueError:
        raise click.BadParameter("--orgs expects exactly two names, e.g. PolitiFact,Snopes")
    for org in (org_x, org_y):
        if org not in corpus.orgs():
            raise click.BadParameter(
                f"--orgs: unknown organization {org!r}; the store has {', '.join(corpus.orgs())}"
            )
    return org_x, org_y


class _Group(click.Group):
    """Runs a command; unreadable or malformed input (a store file, run.cfg,
    a CSV, a report input) or an unreachable provider is a clean error."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ConfigError, corpus_mod.CorpusError, OSError, ValueError,
                ProviderUnreachableError) as exc:
            raise click.ClickException(str(exc)) from None


@click.group(cls=_Group)
@click.option("-v", "--verbose", is_flag=True, help="Enable info logging.")
def main(verbose: bool) -> None:
    """Measure topical overlap and political neutrality in fact-check corpora."""
    logging.basicConfig(
        level=logging.INFO if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _date(ctx: click.Context, param: click.Parameter, value: str) -> dt.date:
    """A date flag's value, read by run.cfg's rule."""
    try:
        return parse_date(value)
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from None


@main.command()
@click.option("--input", "input_file", required=True, type=click.Path(exists=True))
@click.option("--from", "date_from", callback=_date,
              default=str(DEFAULTS["date_from"]), show_default=True)
@click.option("--to", "date_to", callback=_date,
              default=str(DEFAULTS["date_to"]), show_default=True)
@click.option("--out", "store_dir", required=True, type=click.Path())
def ingest(input_file, date_from, date_to, store_dir) -> None:
    """Load a JSON-lines corpus into a canonical store directory."""
    cfg = _config(RunConfig, input_file=input_file, date_from=date_from, date_to=date_to)
    store = Path(store_dir)
    corpus, n_rejections = pipeline.ingest(cfg, store)
    click.echo(f"ingested {len(corpus)} articles -> {store / 'corpus.jsonl'}")
    click.echo(f"rejected {n_rejections} records -> {store / 'rejections.log'}")


@main.command()
@click.option("--store", "store_dir", required=True, type=click.Path(exists=True))
@click.option("--provider-config", "config_file", type=click.Path(exists=True))
@click.option("--cache", "cache_dir", type=click.Path())
@click.option("--mock", "fixtures_dir", type=click.Path(exists=True))
def annotate(store_dir, config_file, cache_dir, fixtures_dir) -> None:
    """Annotate every stored article with the three prompt passes."""
    cfg = _config(
        lambda: load_config(config_file), cache_dir=cache_dir,
        provider_kind="fixtures" if fixtures_dir else None, provider_fixtures_dir=fixtures_dir,
    )
    store = Path(store_dir)
    annotations = pipeline.annotate(cfg, corpus_mod.load_store(store), store)
    failed = sum(1 for a in annotations.values() if a.failed_tags)
    click.echo(
        f"annotated {len(annotations)} articles ({failed} with failed tags) "
        f"-> {store / pipeline.ANNOTATIONS_FILE}"
    )


@main.command()
@click.option("--store", "store_dir", required=True, type=click.Path(exists=True))
@click.option("--provider-config", "config_file", type=click.Path(exists=True))
def embed(store_dir, config_file) -> None:
    """Embed annotation sentences into per-tag unit vectors."""
    cfg = _config(lambda: load_config(config_file))
    store = Path(store_dir)
    annotations = load_annotations(store / pipeline.ANNOTATIONS_FILE)
    embeddings = pipeline.embed(cfg, annotations, store)
    present = sum(1 for e in embeddings.values() if not e.absent)
    click.echo(
        f"embedded {present}/{len(embeddings)} (article, tag) pairs "
        f"-> {store / pipeline.EMBEDDINGS_FILE}"
    )


@main.command()
@click.option("--store", "store_dir", required=True, type=click.Path(exists=True))
@click.option("--tag", type=click.Choice(SENTENCE_TAGS), required=True)
@click.option("--orgs", required=True, help="Comma-separated pair X,Y.")
@click.option("--window", default=DEFAULTS["window_days"], show_default=True)
@click.option("--tau", default=DEFAULTS["tau"], show_default=True)
@click.option("--seed", default=DEFAULTS["seed"], show_default=True)
@click.option("--resamples", default=DEFAULTS["bootstrap_resamples"], show_default=True)
@click.option("--fraction", default=DEFAULTS["bootstrap_fraction"], show_default=True,
              help="Bootstrap resample size as a fraction of the sample.")
@click.option("--level", default=DEFAULTS["confidence_level"], show_default=True,
              help="Confidence level of the bootstrap interval.")
@click.option("--out", "out_file", required=True, type=click.Path())
@click.option("--per-article-csv", "csv_file", type=click.Path())
def similarity(store_dir, tag, orgs, window, tau, seed, resamples, fraction, level,
               out_file, csv_file) -> None:
    """Windowed maximum topical similarity for one org pair and tag."""
    cfg = _config(
        RunConfig, window_days=window, tau=tau, seed=seed, bootstrap_resamples=resamples,
        bootstrap_fraction=fraction, confidence_level=level,
    )
    corpus = corpus_mod.load_store(store_dir)
    org_x, org_y = _org_pair(orgs, corpus)
    if corpus.by_org(org_x)[0].country != corpus.by_org(org_y)[0].country:
        click.echo(
            "warning: cross-geography comparison requested; reference analyses "
            "stay within one geography",
            err=True,
        )
    embeddings, _ = load_embeddings(Path(store_dir) / pipeline.EMBEDDINGS_FILE)
    [result] = pipeline.similarity(cfg, corpus, embeddings, [(org_x, org_y)], (tag,))
    payload = result.to_json_dict()
    report_mod.export_table([payload], "json", out_file)
    if csv_file:
        report_mod.export_table(
            payload["per_article"], "csv", csv_file, ("article_id", "best_match_id", "max_sim")
        )
    med = "absent" if result.median_matched is None else f"{result.median_matched:.4f}"
    click.echo(
        f"{org_x}->{org_y} [{tag}] match_rate={result.match_rate:.3f} "
        f"median={med} -> {out_file}"
    )


@main.command()
@click.option("--store", "store_dir", required=True, type=click.Path(exists=True))
@click.option("--aliases", "aliases_file", type=click.Path(exists=True))
@click.option("--top-k", default=DEFAULTS["top_k_entities"], show_default=True)
@click.option("--window", default=DEFAULTS["window_days"], show_default=True)
@click.option("--orgs", required=True, help="Comma-separated pair X,Y.")
@click.option("--out", "out_file", required=True, type=click.Path())
def entities(store_dir, aliases_file, top_k, window, orgs, out_file) -> None:
    """Top-k political-entity overlap (global and windowed) for one pair."""
    cfg = _config(RunConfig, aliases_file=aliases_file, top_k_entities=top_k, window_days=window)
    corpus = corpus_mod.load_store(store_dir)
    org_x, org_y = _org_pair(orgs, corpus)
    annotations = load_annotations(Path(store_dir) / pipeline.ANNOTATIONS_FILE)
    mentions = pipeline.entity_views(cfg, corpus, annotations, (org_x, org_y))
    tops, [payload] = pipeline.entity_overlap(cfg, mentions, [(org_x, org_y)])
    payload["top_entities_x"] = [list(e) for e in tops[org_x].entities]
    payload["top_entities_y"] = [list(e) for e in tops[org_y].entities]
    report_mod.export_table([payload], "json", out_file)
    gj = "absent" if payload["global_jaccard"] is None else f"{payload['global_jaccard']:.4f}"
    wm = "absent" if payload["windowed_median"] is None else f"{payload['windowed_median']:.4f}"
    click.echo(f"{org_x}-{org_y} global JS={gj} windowed median={wm} -> {out_file}")


@main.command()
@click.option("--store", "store_dir", required=True, type=click.Path(exists=True))
@click.option("--aliases", "aliases_file", type=click.Path(exists=True))
@click.option("--top-k", default=DEFAULTS["top_k_polarity"], show_default=True)
@click.option("--precisions", "precisions_file", type=click.Path(exists=True))
@click.option("--by-year", is_flag=True)
@click.option("--min-support", default=DEFAULTS["min_support"], show_default=True)
@click.option("--out", "out_file", required=True, type=click.Path())
def polarity(store_dir, aliases_file, top_k, precisions_file, by_year, min_support, out_file) -> None:
    """Polarity scores with max-log-error bars per organization."""
    cfg = _config(RunConfig, aliases_file=aliases_file, top_k_polarity=top_k,
                  min_support=min_support)
    if precisions_file:
        prec = asdict(pol_mod.load_precisions_csv(precisions_file))
        cfg = override(cfg, **{f"precision_{name}": value for name, value in prec.items()})
    corpus = corpus_mod.load_store(store_dir)
    annotations = load_annotations(Path(store_dir) / pipeline.ANNOTATIONS_FILE)
    views = pipeline.entity_views(cfg, corpus, annotations, corpus.orgs())
    org_results, skipped = pipeline.polarity(cfg, views)
    for reason in skipped.values():
        click.echo(f"warning: {reason}", err=True)
    rows: list[dict] = []
    for res in org_results:
        if by_year:
            top = [r.counts.entity for r in res.entities[: cfg.top_k_polarity]]
            series = pol_mod.view_series(views[res.org], res.org, top, cfg.precisions)
            rows.extend(pol_mod.polarity_rows(series))
        else:
            rows.extend(pol_mod.polarity_rows(res.entities))
    fmt = "json" if str(out_file).endswith(".json") else "csv"
    report_mod.export_table(rows, fmt, out_file, pipeline.POLARITY_COLUMNS)
    for res in org_results:
        click.echo(
            f"{res.org}: micro={res.micro_ps:.4f} "
            f"macro(top-{cfg.top_k_polarity})={res.macro_ps:.4f}"
        )
    click.echo(f"{len(rows)} polarity rows -> {out_file}")


@main.command()
@click.option(
    "--inputs", "input_files", required=True, multiple=True, type=click.Path(exists=True)
)
@click.option("--format", "fmt", type=click.Choice(["svg", "csv", "json"]), required=True)
@click.option("--out", "out_file", required=True, type=click.Path())
@click.option("--title", default="Entity polarity", show_default=True)
def report(input_files, fmt, out_file, title) -> None:
    """Re-render analysis outputs as a table or an SVG chart. A csv table has
    the first row's columns, so a row with other columns is refused."""
    rows = []
    for path in input_files:
        table = report_mod.read_table(path)
        if fmt == "svg":
            with report_mod.reading(path, "not a chart table"):
                report_mod.check_chart_rows(table)
        elif fmt == "csv" and (rows or table):
            first = (rows or table)[0].keys()
            with report_mod.reading(path, "a row's columns are not the first row's"):
                for row in table:
                    if row.keys() != first:
                        column = next(c for c in [*row, *first] if c not in row.keys() & first)
                        raise ValueError(f"first differing column {column!r}")
        rows.extend(table)
    if fmt == "svg":
        report_mod.write_output(out_file, report_mod.render_polarity_chart(rows, title=title))
    else:
        columns = list(rows[0].keys()) if rows else pipeline.POLARITY_COLUMNS
        report_mod.export_table(rows, fmt, out_file, columns)
    click.echo(f"wrote {fmt} report ({len(rows)} rows) -> {out_file}")


@main.command(name="run-all")
@click.option("--store", "store_dir", required=True, type=click.Path())
@click.option("--config", "config_file", type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--print-config", is_flag=True, help="Dump the effective config and exit.")
def run_all_cmd(store_dir, config_file, out_dir, print_config) -> None:
    """Run ingest, annotate, embed, similarity, entities, polarity, report."""
    cfg = _config(lambda: load_config(config_file))
    if print_config:
        click.echo(serialize_config(cfg), nl=False)
        return
    summary = pipeline.run_all(cfg, store_dir, out_dir)
    click.echo(
        f"pipeline done: {summary.n_articles} articles, "
        f"{summary.n_annotations} annotations, "
        f"{summary.n_similarity_results} similarity results, "
        f"{summary.n_org_reports} org polarity reports -> {summary.out_dir}"
    )


if __name__ == "__main__":
    sys.exit(main())
