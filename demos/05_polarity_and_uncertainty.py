"""Polarity scores per entity with worst-case error bars.

The score is (positive - negative) / total mentions, in [-1, 1] with 0
neutral. Because sentiment tags come from an imperfect annotator, each
score carries a maximum propagated error derived from per-class tag
precision (negative-class precision defaults to 0.706). Organization
aggregates come in two flavors: micro (pool the counts) and macro (mean
of the top-k entity scores).
"""

from pathlib import Path

from factlens.annotation import annotate_corpus
from factlens.corpus import Corpus
from factlens.entities import load_aliases_csv
from factlens.polarity import (
    PolarityCounts,
    PrecisionConfig,
    entity_series,
    max_log_error,
    negativity_ratio,
    org_polarity,
    polarity_score,
)
from factlens.providers import SyntheticChatProvider
from factlens.report import render_polarity_chart
from factlens.synthetic import make_articles, write_alias_csv

out = Path("demo_output/05_polarity")
out.mkdir(parents=True, exist_ok=True)

prec = PrecisionConfig()  # positive 1.0, negative 0.706

counts = PolarityCounts("ExampleOrg", "Example Person", "overall", 3, 1, 10)
print(f"counts (pos=3, neg=1, total=10): score={polarity_score(counts)}, "
      f"max log error={max_log_error(counts, prec):.4f}")

articles = sorted(make_articles(600, seed=5), key=lambda a: (a.published_at, a.id))
corpus = Corpus(
    tuple(articles),
    (min(a.published_at for a in articles), max(a.published_at for a in articles)),
)
annotations = annotate_corpus(corpus, SyntheticChatProvider())
aliases = load_aliases_csv(write_alias_csv(out / "aliases.csv"))

print("\nper-organization aggregates (top-5 entities, support >= 3):")
chart_rows = []
for org in corpus.orgs():
    result = org_polarity(corpus, annotations, aliases, org,
                          top_k=5, prec=prec, min_support=3)
    print(f"  {org:<14} micro={result.micro_ps:+.4f}  macro={result.macro_ps:+.4f}")
    for r in result.entities[:3]:
        chart_rows.append({"org": org, "entity": r.counts.entity,
                           "ps": r.ps, "delta_ps": r.delta_ps})

print("\nyearly series for one (org, entity):")
for r in entity_series(corpus, annotations, aliases, "OpIndia", "Rahul Gandhi", prec=prec):
    print(f"  {r.counts.period:>7}: ps={r.ps:+.4f} +/- {r.delta_ps:.4f} "
          f"(n={r.counts.n_total})")

ratio = negativity_ratio(corpus, annotations, aliases, "OpIndia",
                         "Indian National Congress", "Bharatiya Janata Party")
print(f"\nnegative-rate ratio Congress/BJP at OpIndia: "
      f"{'undefined' if ratio is None else f'{ratio:.2f}x'}")

svg_path = out / "polarity.svg"
svg_path.write_text(render_polarity_chart(chart_rows, title="Synthetic corpus polarity"))
print(f"chart written to {svg_path} (deterministic bytes, error bars = max log error)")
