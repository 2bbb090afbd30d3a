import datetime as dt
import itertools
import random
import re
import statistics
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factlens.annotation import Annotation
from factlens.entities import (
    AliasMap,
    build_alias_map,
    canonicalize,
    jaccard,
    load_aliases_csv,
    top_k_entities,
    windowed_jaccard,
)
from factlens.synthetic import write_alias_csv

ALIASES = build_alias_map(
    [
        ("President Biden", "Joe Biden"),
        ("Biden", "Joe Biden"),
        ("Trump", "Donald Trump"),
        ("NASA", "NASA"),
    ],
    political={"Joe Biden", "Donald Trump"},
)


def ann(article_id, entities):
    return Annotation(article_id=article_id, entities=entities)


def test_canonicalize_mapped_surface():
    assert canonicalize("President Biden", ALIASES) == "Joe Biden"


def test_canonicalize_fixed_point():
    assert canonicalize("Joe Biden", ALIASES) == "Joe Biden"


def test_canonicalize_unmapped_identity():
    assert canonicalize("Jane Roe", ALIASES) == "Jane Roe"


def test_canonicalize_trims_and_casefolds_lookup():
    assert canonicalize("  president   biden ", ALIASES) == "Joe Biden"
    assert canonicalize("  Jane   Roe ", ALIASES) == "Jane Roe"


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=30))
def test_canonicalize_idempotent(surface):
    once = canonicalize(surface, ALIASES)
    assert canonicalize(once, ALIASES) == once


@pytest.mark.parametrize("pairs", [
    [("Biden", "Joe Biden"), ("Joe Biden", "President Biden")],
    [("Joe Biden", "President Biden"), ("Biden", "Joe Biden")],
    [("Biden", "Joe Biden"), ("JB", "joe  biden")],
])
def test_build_alias_map_refuses_a_canonical_name_that_is_an_alias(pairs):
    with pytest.raises(ValueError, match="^canonical name '.*' is an alias of '.*'$"):
        build_alias_map(pairs)


@pytest.mark.parametrize("pairs, message", [
    ([("Biden", "Joe Biden"), ("Biden", "Joseph Biden")],
     "surface 'Biden' is listed for 'Joe Biden' and 'Joseph Biden'"),
    ([("President Biden", "Joe Biden"), ("president  biden", "President Biden")],
     "surface 'President Biden' is listed for 'Joe Biden' and 'President Biden'"),
])
def test_build_alias_map_refuses_a_surface_listed_for_two_names(pairs, message):
    """Which politician a surface counts toward does not hang on row order."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_alias_map(pairs)


def test_build_alias_map_normalizes_the_spacing_of_political_names():
    aliases = build_alias_map([("Biden", "Joe  Biden")], political=["Joe  Biden"])
    assert aliases.is_political(canonicalize("Biden", aliases))


NAMES = st.sampled_from(["Biden", "biden", "Joe Biden", "joe  biden", "President Biden", "JB"])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(NAMES, NAMES), max_size=4))
def test_alias_map_is_refused_or_canonical_names_are_fixed_points(pairs):
    try:
        aliases = build_alias_map(pairs)
    except ValueError:
        return
    for name in {name for pair in pairs for name in pair}:
        once = canonicalize(name, aliases)
        assert canonicalize(once, aliases) == once
    for _, canonical in pairs:
        assert canonicalize(canonical, aliases) == " ".join(canonical.split())


def test_top_k_counts_article_level():
    annotations = [
        ann("a1", {"Biden": "neutral"}),
        ann("a2", {"President Biden": "negative"}),
        ann("a3", {"Trump": "positive"}),
    ]
    result = top_k_entities(annotations, ALIASES, k=10)
    assert result.entities == (("Joe Biden", 2), ("Donald Trump", 1))


def test_top_k_truncates():
    annotations = [
        ann("a1", {"Biden": "neutral"}),
        ann("a2", {"Biden": "neutral"}),
        ann("a3", {"Trump": "neutral"}),
    ]
    result = top_k_entities(annotations, ALIASES, k=1)
    assert result.entities == (("Joe Biden", 2),)


def test_top_k_political_filter_drops_nasa():
    annotations = [ann("a1", {"NASA": "positive", "Biden": "neutral"})]
    political = top_k_entities(annotations, ALIASES, k=10, political_only=True)
    assert political.names() == {"Joe Biden"}
    unfiltered = top_k_entities(annotations, ALIASES, k=10, political_only=False)
    assert unfiltered.names() == {"Joe Biden", "NASA"}


def test_top_k_duplicate_mentions_in_one_article_count_once():
    annotations = [ann("a1", {"Biden": "neutral", "President Biden": "negative"})]
    result = top_k_entities(annotations, ALIASES, k=10)
    assert result.entities == (("Joe Biden", 1),)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=4, unique=True),
        min_size=1,
        max_size=12,
    ),
    st.integers(min_value=1, max_value=8),
)
def test_top_k_prefix_monotone(article_mentions, k):
    annotations = [
        ann(f"a{i}", {name: "neutral" for name in names})
        for i, names in enumerate(article_mentions)
    ]
    empty = AliasMap.empty()
    smaller = top_k_entities(annotations, empty, k=k).entities
    larger = top_k_entities(annotations, empty, k=k + 1).entities
    assert larger[: len(smaller)] == smaller


def test_jaccard_identical_sets():
    assert jaccard(frozenset("ab"), frozenset("ab")) == 1.0


def test_jaccard_disjoint():
    assert jaccard(frozenset("ab"), frozenset("cd")) == 0.0


def test_jaccard_worked_example_one_third():
    a = frozenset(range(100))
    b = frozenset(range(50, 150))
    assert len(a & b) == 50 and len(a | b) == 150
    assert jaccard(a, b) == pytest.approx(1 / 3, abs=0)


def test_jaccard_both_empty_absent():
    assert jaccard(frozenset(), frozenset()) is None
    assert jaccard(frozenset(), frozenset("a")) == 0.0


@settings(max_examples=200, deadline=None)
@given(
    st.frozensets(st.integers(0, 30), max_size=15),
    st.frozensets(st.integers(0, 30), max_size=15),
)
def test_jaccard_symmetric(a, b):
    assert jaccard(a, b) == jaccard(b, a)


# -- windowed variant ---------------------------------------------------------


def day(offset):
    return dt.date(2022, 1, 1) + dt.timedelta(days=offset)


def mentions_from(spec):
    """spec: list of (day offset, iterable of names)."""
    return [(day(off), frozenset(names)) for off, names in spec]


def test_windowed_identity_corpora():
    spec = [(i, ["A", "B"]) for i in range(0, 30, 3)]
    x = mentions_from(spec)
    result = windowed_jaccard(x, list(x), k=5, window_days=15)
    assert set(result.values) == {1.0}
    assert result.median == 1.0


def test_windowed_disjoint_vocabularies():
    x = mentions_from([(i, ["A"]) for i in range(0, 10)])
    y = mentions_from([(i, ["Z"]) for i in range(0, 10)])
    result = windowed_jaccard(x, y, k=5, window_days=15)
    assert set(result.values) == {0.0}


def test_windowed_no_qualifying_days_flagged():
    x = mentions_from([(0, ["A"])])
    y = mentions_from([(40, ["A"])])
    result = windowed_jaccard(x, y, k=5, window_days=15)
    assert result.values == ()
    assert result.median is None


def naive_windowed_jaccard(x, y, k, w):
    """Independent per-day reconstruction of the windowed sets."""
    out = {}
    for d in sorted({date for date, _ in x}):
        sets = []
        for mentions in (x, y):
            freq = Counter()
            for date, names in mentions:
                if abs((date - d).days) <= w:
                    freq.update(names)
            ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
            sets.append({name for name, _ in ranked})
        if sets[0] and sets[1]:
            out[d] = len(sets[0] & sets[1]) / len(sets[0] | sets[1])
    return out


# Unsorted dated mentions, empty name sets included, over 90 days: more
# than two 2w+1-day windows even at w = 20, so slice edges are exercised.
dated_mentions = st.lists(
    st.tuples(st.integers(0, 89), st.frozensets(st.sampled_from("ABCDEF"), max_size=4)),
    max_size=30,
).map(mentions_from)


@settings(max_examples=300, deadline=None)
@given(dated_mentions, dated_mentions, st.integers(1, 8), st.integers(0, 20))
def test_windowed_matches_per_day_brute_force(x, y, k, w):
    result = windowed_jaccard(x, y, k=k, window_days=w)
    oracle = naive_windowed_jaccard(x, y, k, w)
    assert dict(zip(result.days, result.values)) == oracle
    assert list(result.days) == sorted(result.days)
    assert result.median == (statistics.median(oracle.values()) if oracle else None)


@pytest.mark.parametrize(
    "start", [dt.date(2022, 1, 1), dt.date.min, dt.date.max - dt.timedelta(days=89)],
    ids=["2022", "date-min", "date-max"],
)
def test_windowed_wider_than_the_date_range_equals_the_corpus_span(start):
    """A window past the ends of the date type is clamped to them: at any
    width of at least the corpus span every day sees the whole corpus."""
    spec = [(i * 7 % 90, "ABCDEF"[i % 6 : i % 6 + 2]) for i in range(40)]
    x, y = ([(start + dt.timedelta(days=off), frozenset(names)) for off, names in part]
            for part in (spec[::2], spec[1::2]))
    span = windowed_jaccard(x, y, k=3, window_days=89)
    wide = windowed_jaccard(x, y, k=3, window_days=1_000_000)
    assert (wide.days, wide.values) == (span.days, span.values) and span.values


def test_alias_csv_round_trip(tmp_path):
    path = tmp_path / "aliases.csv"
    path.write_text(
        "surface,canonical,political\n"
        "Joe Biden,Joe Biden,yes\n"
        "President Biden,Joe Biden,\n"
        "NASA,NASA,no\n",
        encoding="utf-8",
    )
    aliases = load_aliases_csv(path)
    assert canonicalize("President Biden", aliases) == "Joe Biden"
    assert aliases.is_political("Joe Biden")
    assert not aliases.is_political("NASA")


def test_alias_csv_saved_with_a_byte_order_mark_loads_as_without(tmp_path):
    """Spreadsheet tools save "CSV UTF-8" with a BOM; it is not part of the
    first column's name."""
    plain = write_alias_csv(tmp_path / "plain.csv")
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    aliases = load_aliases_csv(plain)
    assert aliases.mapping and aliases.political
    assert load_aliases_csv(marked) == aliases


@pytest.mark.parametrize("column", ["surface", "canonical", "political"])
def test_alias_csv_without_a_column_is_refused(tmp_path, column):
    header = [c for c in ("surface", "canonical", "political") if c != column]
    path = tmp_path / "aliases.csv"
    path.write_text(",".join(header) + "\nJoe Biden,Joe Biden\n", encoding="utf-8")
    with pytest.raises(ValueError, match=(
        f"^{re.escape(str(path))}: not a valid alias file "
        f"\\(ValueError: missing column '{column}'\\)$"
    )):
        load_aliases_csv(path)


@pytest.mark.parametrize("rows, message", [
    ("Joe,Joe Biden,yes,extra\n", "line 2: cell count 4, the header's 3"),
    ("Joe Biden,Joe Biden,yes\nKam,Kamala Harris\n", "line 3: cell count 2, the header's 3"),
    ("Biden,Joe Biden,\nJoe Biden,President Biden,yes\n",
     "canonical name 'Joe Biden' is an alias of 'President Biden'"),
])
def test_alias_csv_with_a_ragged_row_or_a_chain_is_refused(tmp_path, rows, message):
    path = tmp_path / "aliases.csv"
    path.write_text("surface,canonical,political\n" + rows, encoding="utf-8")
    with pytest.raises(ValueError, match=(
        f"^{re.escape(str(path))}: not a valid alias file \\(ValueError: {re.escape(message)}\\)$"
    )):
        load_aliases_csv(path)


def test_empty_alias_map_treats_all_as_political():
    empty = AliasMap.empty()
    assert empty.is_political("Anyone At All")
    assert canonicalize("Anyone At All", empty) == "Anyone At All"


def test_entity_overlap_shares_window_sets_across_a_country():
    """Three orgs of one country: each org's window sets are shared by the
    four ordered pairs it is in, and every pair still equals the brute force."""
    from factlens import pipeline
    from factlens.config import RunConfig

    rnd = random.Random(13)
    mentions = {
        org: mentions_from(
            [(rnd.randint(0, 59), rnd.sample("ABCDEFGH", rnd.randint(0, 4))) for _ in range(40)]
        )
        for org in ("O1", "O2", "O3")
    }
    pairs = list(itertools.permutations(sorted(mentions), 2))
    cfg = RunConfig(top_k_entities=3)
    _, overlaps = pipeline.entity_overlap(cfg, mentions, pairs)
    assert [(o["org_x"], o["org_y"]) for o in overlaps] == pairs
    for payload in overlaps:
        x, y = mentions[payload["org_x"]], mentions[payload["org_y"]]
        oracle = naive_windowed_jaccard(x, y, 3, cfg.analysis.window_days)
        assert payload["windowed_days"] == [d.isoformat() for d in oracle]
        assert payload["windowed_values"] == list(oracle.values())


def test_shared_window_sets_must_match_k_and_window():
    x = mentions_from([(0, ["A"]), (3, ["B"])])
    windows = {}
    windowed_jaccard(x, x, k=2, window_days=5, org_x="P", org_y="Q", windows=windows)
    with pytest.raises(ValueError, match="window sets of P"):
        windowed_jaccard(x, x, k=3, window_days=5, org_x="P", org_y="Q", windows=windows)


@pytest.mark.parametrize("row, message", [
    (",Joe Biden,yes\n", "a row names 'Joe Biden' with a blank surface"),
    ("Joe Biden,,yes\n", "a row names 'Joe Biden' with a blank canonical"),
    (" ,Joe Biden,\n", "a row names 'Joe Biden' with a blank surface"),
])
def test_alias_csv_row_with_one_blank_name_is_refused(tmp_path, row, message):
    """Skipped, such a row would take its political flag with it."""
    path = tmp_path / "aliases.csv"
    path.write_text("surface,canonical,political\n" + row + "Biden,Joe Biden,\n", encoding="utf-8")
    with pytest.raises(ValueError, match=(
        f"^{re.escape(str(path))}: not a valid alias file \\(ValueError: {re.escape(message)}\\)$"
    )):
        load_aliases_csv(path)


@pytest.mark.parametrize("cell", ["true", "y", "1", "Ja", "yes!"])
def test_alias_csv_political_cell_other_than_yes_no_or_blank_is_refused(tmp_path, cell):
    """Read as no, such a cell would drop its name from overlap and polarity."""
    path = tmp_path / "aliases.csv"
    path.write_text(
        f"surface,canonical,political\nJoe Biden,Joe Biden,{cell}\n"
        "Donald Trump,Donald Trump,yes\n",
        encoding="utf-8",
    )
    message = (
        f"{path}: not a valid alias file (ValueError: political cell {cell!r} for "
        "'Joe Biden'; expected yes, no or blank)"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_aliases_csv(path)


def test_alias_csv_political_cell_reads_yes_no_or_blank_in_any_case(tmp_path):
    path = tmp_path / "aliases.csv"
    path.write_text(
        "surface,canonical,political\nJoe Biden,Joe Biden, YES \nDonald Trump,Donald Trump,No\n"
        "Narendra Modi,Narendra Modi,\nRahul Gandhi,Rahul Gandhi,yes\n",
        encoding="utf-8",
    )
    names = ["Joe Biden", "Donald Trump", "Narendra Modi", "Rahul Gandhi"]
    expected = build_alias_map([(n, n) for n in names], ["Joe Biden", "Rahul Gandhi"])
    assert load_aliases_csv(path) == expected


def test_alias_csv_row_with_both_names_blank_is_skipped(tmp_path):
    """A spreadsheet's trailing ",," rows."""
    path = tmp_path / "aliases.csv"
    path.write_text(
        "surface,canonical,political\nJoe Biden,Joe Biden,yes\n,,\n , ,yes\n", encoding="utf-8"
    )
    assert load_aliases_csv(path) == build_alias_map([("Joe Biden", "Joe Biden")], ["Joe Biden"])
