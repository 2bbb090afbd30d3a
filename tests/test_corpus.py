import datetime as dt
import json
import random
import tracemalloc

import pytest

import factlens.corpus as corpus_mod
from factlens.corpus import (
    KNOWN_ORGS,
    Article,
    Corpus,
    CorpusError,
    IngestResult,
    canonical_record,
    ingest,
    load_store,
    org_counts,
    write_corpus_file,
    write_store,
)
from factlens.synthetic import make_articles
from tests.conftest import assert_unchanged

RANGE = (dt.date(2018, 1, 1), dt.date(2023, 12, 31))

# Per-organization sizes of the released six-org dataset.
RELEASED_COUNTS = {
    "PolitiFact": 9829,
    "Snopes": 9636,
    "CheckYourFact": 6401,
    "AltNews": 4234,
    "Boom": 3993,
    "OpIndia": 1520,
}


def record(article_id, org="PolitiFact", date="2020-06-01", body="Body text.", **extra):
    raw = {
        "id": article_id,
        "org": org,
        "country": KNOWN_ORGS.get(org, "USA"),
        "published_at": date,
        "title": f"t-{article_id}",
        "body": body,
    }
    raw.update(extra)
    return json.dumps(raw)


def write_lines(path, lines):
    """One line per item: a str is written as UTF-8, bytes as they are."""
    path.write_bytes(b"".join(
        (line if isinstance(line, bytes) else line.encode("utf-8")) + b"\n" for line in lines
    ))
    return path


# A body with U+2028 and U+0085, which str.splitlines() treats as line
# breaks; in JSON they may be escaped or raw.
SEPARATOR_BODY = "First part.\u2028Second part.\u0085Third part."


def separator_records(first_id):
    """The same record with its separators escaped and raw, under two ids."""
    escaped = record(first_id, body=SEPARATOR_BODY)
    raw = record(f"{first_id}-raw", body=SEPARATOR_BODY)
    raw = raw.replace("\\u2028", "\u2028").replace("\\u0085", "\u0085")
    assert "\u2028" in raw and "\u2028" not in escaped
    return [escaped, raw]


def test_ingest_basic(tmp_path):
    path = write_lines(tmp_path / "c.jsonl", [record("a2"), record("a1")])
    result = ingest(path, RANGE)
    assert [a.id for a in result.corpus] == ["a1", "a2"]
    assert result.rejections == ()


def test_ingest_empty_file(tmp_path):
    path = write_lines(tmp_path / "c.jsonl", [])
    result = ingest(path, RANGE)
    assert len(result.corpus) == 0
    assert len(result.rejections) == 0


def test_ingest_range_filter(tmp_path):
    lines = [
        record("a1", date="2019-05-05"),
        record("a2", date="2017-12-31"),
        record("a3", date="2023-12-31"),
    ]
    result = ingest(write_lines(tmp_path / "c.jsonl", lines), RANGE)
    assert len(result.corpus) == 2
    assert len(result.rejections) == 1
    assert result.rejections[0].article_id == "a2"
    assert "outside range" in result.rejections[0].reason


@pytest.mark.parametrize(
    "bad_line, reason_part",
    [
        ("{not json", "invalid JSON"),
        ('"just a string"', "not an object"),
        (json.dumps({"id": "x", "org": "o"}), "missing field"),
        (record("x", date="01/02/2020"), "invalid date"),
        # Forms that date.fromisoformat reads from Python 3.11 on.
        (record("x", date="20200601"), "invalid date '20200601'"),
        (record("x", date="2020-W23-1"), "invalid date '2020-W23-1'"),
        (record("x", body="   "), "empty body"),
        # Past CPython's int-string conversion limit and its recursion limit.
        pytest.param('{"id": ' + "1" * 5000 + "}", "invalid JSON", id="huge-int"),
        pytest.param("[" * 100_000, "invalid JSON", id="deep-nesting"),
        pytest.param(b'{"id": "x\xff\xfe"}', "invalid UTF-8", id="invalid-utf8"),
        (record("x", url=7), "field 'url' is not a string"),
        # A repeated key is refused, as in every JSON input, not read as its last value.
        pytest.param(record("x")[:-1] + ', "body": "Another body."}',
                     "invalid JSON: an object repeats the key 'body'", id="repeated-body"),
        pytest.param('{"id": "a2", ' + record("a3")[1:],
                     "invalid JSON: an object repeats the key 'id'", id="repeated-id"),
    ],
)
def test_ingest_rejects_malformed(tmp_path, bad_line, reason_part):
    result = ingest(write_lines(tmp_path / "c.jsonl", [record("ok"), bad_line]), RANGE)
    assert len(result.corpus) == 1
    assert len(result.rejections) == 1
    assert result.rejections[0].line_no == 2
    assert reason_part in result.rejections[0].reason


def test_duplicate_id_first_wins(tmp_path):
    lines = [record("dup", body="first body"), record("dup", body="second body")]
    result = ingest(write_lines(tmp_path / "c.jsonl", lines), RANGE)
    assert len(result.corpus) == 1
    assert result.corpus.articles[0].body == "first body"
    assert result.rejections[0].reason == "duplicate id"


def test_every_line_accounted_for(tmp_path):
    lines = [record(f"a{i}") for i in range(5)] + ["", "{bad", record("a0")]
    lines += separator_records("s1") + [b"\xff{bad utf-8", record("a9")]
    result = ingest(write_lines(tmp_path / "c.jsonl", lines), RANGE)
    assert len(result.corpus) + len(result.rejections) == len(lines)
    assert [r.line_no for r in result.rejections] == [6, 7, 8, 11]


def test_unreadable_file_is_fatal(tmp_path):
    with pytest.raises(CorpusError):
        ingest(tmp_path / "missing.jsonl", RANGE)
    with pytest.raises(CorpusError, match="date range start 2023-12-31 after end 2018-01-01"):
        ingest(write_lines(tmp_path / "c.jsonl", [record("a1")]), RANGE[::-1])


def test_a_leading_byte_order_mark_is_skipped(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_bytes(b"\xef\xbb\xbf" + write_lines(path, [record("a1"), record("a2")]).read_bytes())
    result = ingest(path, RANGE)
    assert [a.id for a in result.corpus] == ["a1", "a2"]
    assert result.rejections == ()


def test_ingest_idempotent_on_canonical_form(tmp_path):
    lines = [record(f"a{i}", date=f"2020-0{1 + i % 9}-15") for i in range(20)]
    first = ingest(write_lines(tmp_path / "c.jsonl", lines), RANGE)
    canon = tmp_path / "canon.jsonl"
    write_corpus_file(first.corpus, canon)
    second = ingest(canon, RANGE)
    assert second.corpus == first.corpus
    assert second.rejections == ()


def test_sort_order_is_total_under_shuffle(tmp_path):
    lines = [record(f"a{i:03d}", date=f"2021-{1 + i % 12:02d}-0{1 + i % 9}") for i in range(60)]
    baseline = ingest(write_lines(tmp_path / "c.jsonl", lines), RANGE)
    for seed in (1, 2, 3):
        shuffled = lines[:]
        random.Random(seed).shuffle(shuffled)
        result = ingest(write_lines(tmp_path / f"s{seed}.jsonl", shuffled), RANGE)
        assert result.corpus == baseline.corpus


def test_org_counts_partition(tmp_path):
    lines = [
        record("a1", org="Snopes", date="2018-03-01"),
        record("a2", org="Snopes", date="2019-03-01"),
        record("a3", org="Boom", date="2019-04-01"),
    ]
    corpus = ingest(write_lines(tmp_path / "c.jsonl", lines), RANGE).corpus
    assert org_counts(corpus) == {"Snopes": 2, "Boom": 1}
    by_year = org_counts(corpus, by_year=True)
    assert by_year == {("Snopes", 2018): 1, ("Snopes", 2019): 1, ("Boom", 2019): 1}
    assert sum(by_year.values()) == len(corpus)


def test_org_counts_empty():
    from tests.conftest import make_corpus

    assert org_counts(make_corpus([])) == {}


def test_released_dataset_scale_counts(tmp_path):
    """A fixture mirroring the released per-org sizes ingests to exact counts."""
    lines = []
    i = 0
    for org, n in RELEASED_COUNTS.items():
        for _ in range(n):
            date = dt.date(2018, 1, 1) + dt.timedelta(days=(i * 37) % 2190)
            lines.append(record(f"{org}-{i}", org=org, date=date.isoformat(), body="x."))
            i += 1
    result = ingest(write_lines(tmp_path / "big.jsonl", lines), RANGE)
    assert len(result.rejections) == 0
    assert org_counts(result.corpus) == RELEASED_COUNTS
    assert len(result.corpus) == sum(RELEASED_COUNTS.values())


def test_store_round_trip(tmp_path):
    lines = [record("a1"), record("a2", date="2021-01-01"), "{bad", *separator_records("s1")]
    result = ingest(write_lines(tmp_path / "c.jsonl", lines), RANGE)
    corpus_path, rejects_path = write_store(result, tmp_path / "store")
    assert corpus_path.exists() and rejects_path.exists()
    loaded = load_store(tmp_path / "store")
    assert loaded == result.corpus
    assert [a.body for a in loaded if a.id.startswith("s1")] == [SEPARATOR_BODY] * 2
    logged = [json.loads(l) for l in rejects_path.read_text().splitlines()]
    assert len(logged) == 1 and "invalid JSON" in logged[0]["reason"]


def test_failed_store_write_keeps_the_previous_store(tmp_path):
    result = ingest(write_lines(tmp_path / "c.jsonl", [record("a1"), "{bad"]), RANGE)
    store = tmp_path / "store"
    write_store(result, store)
    before = {p.name: p.read_bytes() for p in store.iterdir()}
    # A title no writer can encode stops the corpus write midway.
    bad = Article("a0", "Snopes", "USA", dt.date(2019, 1, 1), "T\ud800", "Body.")
    with pytest.raises(ValueError, match="corpus.jsonl: cannot write"):
        write_store(IngestResult(Corpus((bad, *result.corpus), RANGE), ()), store)
    assert_unchanged(before, store)
    assert load_store(store) == result.corpus


@pytest.mark.parametrize("when", ["before", "after"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_stopped_reingest_never_leaves_a_mixed_store(tmp_path, monkeypatch, k, when):
    """A re-ingest that narrows the range, stopped before or after the k-th
    file write of write_store: the store loads as the old one or the new
    one whole, or is refused; never the new corpus under the old range."""
    lines = [record("a1", date="2018-05-01"), record("a2", date="2019-05-01"),
             record("a3", date="2021-05-01")]
    source = write_lines(tmp_path / "c.jsonl", lines)
    store = tmp_path / "store"
    old = ingest(source, RANGE)
    write_store(old, store)
    new = ingest(source, (dt.date(2019, 1, 1), dt.date(2019, 12, 31)))
    real, calls = corpus_mod.write_output, []

    def stopping(path, text):
        calls.append(path)
        if when == "before" and len(calls) == k:
            raise KeyboardInterrupt
        written = real(path, text)
        if len(calls) == k:
            raise KeyboardInterrupt
        return written

    monkeypatch.setattr(corpus_mod, "write_output", stopping)
    with pytest.raises(KeyboardInterrupt):
        write_store(new, store)
    monkeypatch.undo()
    try:
        loaded = load_store(store)
    except CorpusError as exc:
        assert "has no meta.json" in str(exc)
    else:
        assert loaded in (old.corpus, new.corpus)
        assert (loaded == old.corpus) == (k == 1 and when == "before")


def test_by_org_matches_a_scan_of_the_corpus(tmp_path):
    orgs = list(KNOWN_ORGS)
    rnd = random.Random(7)
    lines = [
        record(f"a{i:03d}", org=rnd.choice(orgs), date=f"2020-{1 + i % 12:02d}-01")
        for i in range(80)
    ]
    result = ingest(write_lines(tmp_path / "c.jsonl", lines), RANGE)
    write_store(result, tmp_path / "store")
    for corpus in (result.corpus, load_store(tmp_path / "store")):
        assert corpus.orgs() == sorted({a.org for a in corpus})
        for org in corpus.orgs() + ["Unknown Org"]:
            assert corpus.by_org(org) == [a for a in corpus if a.org == org]


@pytest.mark.parametrize(
    "meta",
    [
        '{"date_fr',
        '{"date_from": "2018-01-01"}',
        '{"date_from": "2018-01-01", "date_to": "2023-13-01"}',
        '{"date_from": 2018, "date_to": "2023-12-31"}',
        '{"date_from": "20180101", "date_to": "2023-12-31"}',
        '{"date_from": "2018-W01-1", "date_to": "2023-12-31"}',
        '["2018-01-01", "2023-12-31"]',
        b'\xff\xfe',
        "[" * 200_000 + "]" * 200_000,
        '{"date_from": "2023-12-31", "date_to": "2018-01-01"}',
    ],
    ids=["truncated", "missing-key", "bad-date", "not-a-string", "basic-date", "week-date",
         "not-an-object", "not-utf8", "deep-nesting", "dates-reversed"],
)
def test_damaged_meta_json_names_itself(tmp_path, meta):
    write_store(ingest(write_lines(tmp_path / "c.jsonl", [record("a1")]), RANGE), tmp_path / "s")
    meta_path = tmp_path / "s" / "meta.json"
    if isinstance(meta, bytes):
        meta_path.write_bytes(meta)
    else:
        meta_path.write_text(meta, encoding="utf-8")
    with pytest.raises(CorpusError, match="meta.json: not a valid store meta file"):
        load_store(tmp_path / "s")


def test_write_store_streams_the_corpus(tmp_path):
    """The store's corpus goes out one line at a time, never as one string."""
    articles = make_articles(2000, seed=1)
    corpus = Corpus(tuple(sorted(articles, key=lambda a: (a.published_at, a.id))), RANGE)
    text_length = sum(len(canonical_record(a)) + 1 for a in corpus)
    tracemalloc.start()
    try:
        write_store(IngestResult(corpus, ()), tmp_path / "store")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < text_length / 4, (peak, text_length)
    assert load_store(tmp_path / "store") == corpus


@pytest.mark.parametrize("field", ["id", "org", "country", "title", "body", "url"])
def test_unpaired_surrogate_is_a_rejection_naming_its_field(tmp_path, field):
    raw = json.loads(record("x", url="https://example.org/x"))
    raw[field] = "bad \ud800 x"
    line = json.dumps(raw)  # the surrogate as the escape \ud800
    result = ingest(write_lines(tmp_path / "c.jsonl", [record("ok"), line]), RANGE)
    [rejection] = result.rejections
    assert rejection.reason == f"field '{field}' holds an unpaired surrogate"
    assert rejection.article_id == (None if field == "id" else "x")
    write_store(result, tmp_path / "store")
    assert load_store(tmp_path / "store") == result.corpus


def test_rejection_keeps_no_id_that_cannot_be_written(tmp_path):
    line = json.dumps({"id": "bad \ud800 x", "org": "Snopes"})
    result = ingest(write_lines(tmp_path / "c.jsonl", [line]), RANGE)
    assert [(r.article_id, r.reason) for r in result.rejections] == [
        (None, "missing field 'country'")
    ]
    write_store(result, tmp_path / "store")
