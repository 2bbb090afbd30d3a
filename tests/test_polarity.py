import datetime as dt
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factlens.annotation import Annotation
from factlens.entities import AliasMap, build_alias_map
from factlens.polarity import (
    OVERALL,
    PolarityCounts,
    PrecisionConfig,
    entity_series,
    load_precisions_csv,
    max_log_error,
    negativity_ratio,
    org_polarity,
    polarity_score,
)
from tests.conftest import make_article, make_corpus

PREC = PrecisionConfig()  # positive 1.0, negative 0.706


def counts(n_pos, n_neg, n_total, org="Org", entity="E", period=OVERALL):
    return PolarityCounts(org, entity, period, n_pos, n_neg, n_total)


# Count tuples drawn so n_pos + n_neg <= n_total >= 1.
count_triples = st.integers(1, 1000).flatmap(
    lambda t: st.tuples(st.integers(0, t), st.just(t)).flatmap(
        lambda pt: st.tuples(st.just(pt[0]), st.integers(0, t - pt[0]), st.just(t))
    )
)


def test_score_symmetric_counts_are_zero():
    assert polarity_score(counts(4, 4, 20)) == 0.0


def test_score_all_positive_bound():
    assert polarity_score(counts(7, 0, 7)) == 1.0


def test_score_worked_example():
    assert polarity_score(counts(3, 1, 10)) == 0.2


def test_score_zero_total_is_error():
    with pytest.raises(ValueError):
        polarity_score(counts(0, 0, 0))


def test_counts_invariant_enforced():
    with pytest.raises(ValueError):
        PolarityCounts("O", "E", OVERALL, 5, 6, 10)


def test_max_log_error_perfect_precision_is_zero():
    perfect = PrecisionConfig(positive=1.0, negative=1.0)
    assert max_log_error(counts(5, 3, 20), perfect) == 0.0


def test_max_log_error_worked_examples():
    assert max_log_error(counts(3, 1, 10), PREC) == pytest.approx(0.0294, abs=1e-12)
    assert max_log_error(counts(0, 10, 10), PREC) == pytest.approx(0.294, abs=1e-12)


@settings(max_examples=500, deadline=None)
@given(count_triples)
def test_formulas_match_fraction_oracle(triple):
    n_pos, n_neg, n_total = triple
    c = counts(n_pos, n_neg, n_total)
    score_oracle = Fraction(n_pos - n_neg, n_total)
    assert abs(polarity_score(c) - float(score_oracle)) <= 1e-12
    err_oracle = (
        Fraction(n_pos) * (1 - Fraction("1.0"))
        + Fraction(n_neg) * (1 - Fraction("0.706"))
    ) / n_total
    assert abs(max_log_error(c, PREC) - float(err_oracle)) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(count_triples)
def test_antisymmetry_and_bounds(triple):
    n_pos, n_neg, n_total = triple
    ps = polarity_score(counts(n_pos, n_neg, n_total))
    swapped = polarity_score(counts(n_neg, n_pos, n_total))
    assert swapped == -ps
    assert -1.0 <= ps <= 1.0
    delta = max_log_error(counts(n_pos, n_neg, n_total), PREC)
    assert 0.0 <= delta <= max(1 - PREC.positive, 1 - PREC.negative) + 1e-12


@settings(max_examples=300, deadline=None)
@given(count_triples, st.integers(2, 9))
def test_scale_invariance(triple, factor):
    n_pos, n_neg, n_total = triple
    base = counts(n_pos, n_neg, n_total)
    scaled = counts(n_pos * factor, n_neg * factor, n_total * factor)
    assert polarity_score(scaled) == polarity_score(base)
    assert max_log_error(scaled, PREC) == max_log_error(base, PREC)


# -- aggregation over annotations ---------------------------------------------

ALIASES = build_alias_map(
    [("Trump", "Donald Trump"), ("Gandhi", "Rahul Gandhi")],
    political={"Donald Trump", "Rahul Gandhi"},
)


def tagged_fixture(org, entity, n_pos, n_neg, n_total, year=2020, start=0):
    """Articles+annotations whose counts for entity are exactly as given."""
    articles, annotations = [], {}
    labels = (
        ["positive"] * n_pos + ["negative"] * n_neg + ["neutral"] * (n_total - n_pos - n_neg)
    )
    for i, label in enumerate(labels):
        aid = f"{org}-{start + i:05d}"
        articles.append(
            make_article(aid, org=org, date=dt.date(year, 1 + (i % 12), 1))
        )
        annotations[aid] = Annotation(article_id=aid, entities={entity: label})
    return articles, annotations


def test_entity_series_snopes_trump_value():
    articles, annotations = tagged_fixture("Snopes", "Trump", 10, 71, 100)
    corpus = make_corpus(articles)
    series = entity_series(corpus, annotations, ALIASES, "Snopes", "Donald Trump", prec=PREC)
    overall = [r for r in series if r.counts.period == OVERALL]
    assert len(overall) == 1
    assert overall[0].ps == -0.61
    assert overall[0].counts.n_total == 100


def test_entity_series_single_neutral_tag():
    articles, annotations = tagged_fixture("Boom", "Gandhi", 0, 0, 1)
    corpus = make_corpus(articles)
    series = entity_series(corpus, annotations, ALIASES, "Boom", "Rahul Gandhi", prec=PREC)
    assert series[-1].ps == 0.0
    assert series[-1].delta_ps == 0.0


def test_entity_series_additive_over_years():
    a1, ann1 = tagged_fixture("Snopes", "Trump", 2, 3, 6, year=2019)
    a2, ann2 = tagged_fixture("Snopes", "Trump", 1, 4, 7, year=2021, start=100)
    corpus = make_corpus(a1 + a2)
    annotations = {**ann1, **ann2}
    series = entity_series(corpus, annotations, ALIASES, "Snopes", "Donald Trump", prec=PREC)
    by_period = {r.counts.period: r.counts for r in series}
    assert set(by_period) == {"2019", "2021", OVERALL}
    for field in ("n_pos", "n_neg", "n_total"):
        assert getattr(by_period[OVERALL], field) == (
            getattr(by_period["2019"], field) + getattr(by_period["2021"], field)
        )


def test_entity_series_unknown_entity_empty():
    articles, annotations = tagged_fixture("Snopes", "Trump", 1, 1, 2)
    corpus = make_corpus(articles)
    assert entity_series(corpus, annotations, ALIASES, "Snopes", "Nobody") == []


def test_org_polarity_micro_and_macro():
    a1, ann1 = tagged_fixture("Snopes", "Trump", 10, 71, 100)
    a2, ann2 = tagged_fixture("Snopes", "Gandhi", 5, 5, 20, start=200)
    corpus = make_corpus(a1 + a2)
    annotations = {**ann1, **ann2}
    result = org_polarity(corpus, annotations, ALIASES, "Snopes", top_k=5, prec=PREC, min_support=1)
    assert result.micro_ps == (10 + 5 - 71 - 5) / 120
    assert result.macro_ps == pytest.approx((-0.61 + 0.0) / 2)
    assert [r.counts.entity for r in result.entities] == ["Donald Trump", "Rahul Gandhi"]


def test_org_polarity_single_entity_micro_equals_macro():
    articles, annotations = tagged_fixture("Boom", "Gandhi", 2, 6, 10)
    corpus = make_corpus(articles)
    result = org_polarity(corpus, annotations, ALIASES, "Boom", top_k=5, prec=PREC, min_support=1)
    assert result.micro_ps == result.macro_ps == -0.4


def test_org_polarity_all_neutral_is_zero():
    articles, annotations = tagged_fixture("Boom", "Gandhi", 0, 0, 12)
    corpus = make_corpus(articles)
    result = org_polarity(corpus, annotations, ALIASES, "Boom", top_k=5, prec=PREC, min_support=1)
    assert result.micro_ps == result.macro_ps == 0.0


def test_org_polarity_min_support_excludes_thin_entities():
    a1, ann1 = tagged_fixture("Snopes", "Trump", 2, 8, 50)
    a2, ann2 = tagged_fixture("Snopes", "Gandhi", 0, 3, 3, start=500)
    corpus = make_corpus(a1 + a2)
    annotations = {**ann1, **ann2}
    result = org_polarity(corpus, annotations, ALIASES, "Snopes", top_k=5, prec=PREC, min_support=10)
    assert [r.counts.entity for r in result.entities] == ["Donald Trump"]
    # Micro still pools every political entity, below-support ones included.
    assert result.micro_ps == (2 - 8 - 3) / 53


def test_org_polarity_no_political_entities_is_error():
    articles, annotations = tagged_fixture("Snopes", "Nonpolitical Person", 1, 1, 3)
    corpus = make_corpus(articles)
    aliases = build_alias_map([], political=set())
    with pytest.raises(ValueError):
        org_polarity(corpus, annotations, aliases, "Snopes")


def test_negativity_ratio_worked_example():
    a1, ann1 = tagged_fixture("CheckYourFact", "Trump", 0, 6, 10)
    a2, ann2 = tagged_fixture("CheckYourFact", "Gandhi", 0, 1, 10, start=300)
    corpus = make_corpus(a1 + a2)
    annotations = {**ann1, **ann2}
    ratio = negativity_ratio(
        corpus, annotations, ALIASES, "CheckYourFact", "Donald Trump", "Rahul Gandhi"
    )
    assert ratio == 6.0


def test_negativity_ratio_identical_counts():
    a1, ann1 = tagged_fixture("Boom", "Trump", 1, 4, 10)
    a2, ann2 = tagged_fixture("Boom", "Gandhi", 1, 4, 10, start=300)
    corpus = make_corpus(a1 + a2)
    ratio = negativity_ratio(
        corpus, {**ann1, **ann2}, ALIASES, "Boom", "Donald Trump", "Rahul Gandhi"
    )
    assert ratio == 1.0


def test_negativity_ratio_zero_numerator():
    a1, ann1 = tagged_fixture("Boom", "Trump", 1, 0, 10)
    a2, ann2 = tagged_fixture("Boom", "Gandhi", 0, 4, 10, start=300)
    corpus = make_corpus(a1 + a2)
    ratio = negativity_ratio(
        corpus, {**ann1, **ann2}, ALIASES, "Boom", "Donald Trump", "Rahul Gandhi"
    )
    assert ratio == 0.0


def test_negativity_ratio_zero_denominator_flagged():
    a1, ann1 = tagged_fixture("Boom", "Trump", 1, 3, 10)
    a2, ann2 = tagged_fixture("Boom", "Gandhi", 4, 0, 10, start=300)
    corpus = make_corpus(a1 + a2)
    ratio = negativity_ratio(
        corpus, {**ann1, **ann2}, ALIASES, "Boom", "Donald Trump", "Rahul Gandhi"
    )
    assert ratio is None


def test_precision_csv_loader(tmp_path):
    path = tmp_path / "prec.csv"
    path.write_text("positive,negative,neutral\n1.0,0.706,1.0\n", encoding="utf-8")
    prec = load_precisions_csv(path)
    assert prec == PrecisionConfig(1.0, 0.706)
    path.write_text("negative,positive\n0.5,0.9\n", encoding="utf-8")
    assert load_precisions_csv(path) == PrecisionConfig(0.9, 0.5)


@pytest.mark.parametrize("text, message", [
    ("positive,neutral\n1.0,1.0\n", "precision_negative: missing"),
    ("positive,negative,neutral\n0.9,1\n", "line 2: cell count 2, the header's 3"),
    ("positive,negative,neutral\n0.9,0.8,0.7,5\n", "line 2: cell count 4, the header's 3"),
    ("positive,negative,positive\n0.9,0.8,0.1\n", "line 1: the header repeats 'positive'"),
])
def test_precision_csv_loader_rejects_a_missing_cell(tmp_path, text, message):
    path = tmp_path / "prec.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{path}: not a valid precision file.*{message}"):
        load_precisions_csv(path)


def test_precision_validation():
    with pytest.raises(ValueError):
        PrecisionConfig(negative=1.5)


def test_canonicalization_merges_surface_forms():
    """Two surface forms of one entity in one article count once."""
    article = make_article("m1", org="Snopes")
    annotations = {
        "m1": Annotation(
            article_id="m1",
            entities={"Trump": "negative", "Donald Trump": "positive"},
        )
    }
    corpus = make_corpus([article])
    series = entity_series(corpus, annotations, ALIASES, "Snopes", "Donald Trump", prec=PREC)
    assert series[-1].counts.n_total == 1


@pytest.mark.parametrize(
    "entities, n_pos, n_neg",
    [
        ({"Trump": "negative", "Donald Trump": "positive"}, 0, 1),
        ({"Donald Trump": "positive", "Trump": "negative"}, 1, 0),
    ],
)
def test_first_surface_form_label_wins(entities, n_pos, n_neg):
    """Merged surface forms give one tag per article: the first one's."""
    corpus = make_corpus([make_article("m1", org="Snopes")])
    annotations = {"m1": Annotation(article_id="m1", entities=entities)}
    series = entity_series(corpus, annotations, ALIASES, "Snopes", "Donald Trump", prec=PREC)
    counts = series[-1].counts
    assert (counts.n_pos, counts.n_neg, counts.n_total) == (n_pos, n_neg, 1)
