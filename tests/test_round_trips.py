"""Round-trip properties for the store and chart writers.

For each writer/reader pair, writing then reading gives back what was
written, or the writer refuses without writing: ``save_annotations`` →
``load_annotations``, ``write_corpus_file`` → ``ingest`` (an article that
``ingest`` accepts comes back equal, and one it rejects breaks a rule of
the input format) and the chart's org and entity names → ElementTree text.
The text is ``tests/test_report.py``'s hostile cells, plus U+0085, which
``str.splitlines`` takes for a line end and ``str.strip`` for white space.
"""

import datetime as dt
import re
import tempfile
from pathlib import Path
from xml.etree import ElementTree

from hypothesis import given, settings
from hypothesis import strategies as st

from factlens.annotation import Annotation, load_annotations, save_annotations
from factlens.corpus import Article, ingest, write_corpus_file
from factlens.report import render_polarity_chart, write_output
from tests.test_report import HOSTILE, utf8

TEXT = st.lists(st.one_of(HOSTILE, st.just("\x85")), max_size=3).map("".join)
TEXTS = st.lists(TEXT, max_size=2).map(tuple)
LABELS = ("positive", "negative", "neutral")


def written(write, path: Path) -> bool:
    """Calls write(path): True when it wrote, False when it refused with a
    ValueError, which must leave path's directory empty."""
    try:
        write(path)
    except ValueError:
        assert list(path.parent.iterdir()) == []
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(
    Annotation, article_id=TEXT, claim=TEXTS, what=TEXTS, why=TEXTS,
    entities=st.dictionaries(TEXT, st.sampled_from([*LABELS, "happy", ""]), max_size=3),
    failed_tags=TEXTS, flags=TEXTS,
), max_size=3, unique_by=lambda a: a.article_id))
def test_saved_annotations_load_back_as_saved_or_are_not_written(rows):
    annotations = {ann.article_id: ann for ann in rows}
    texts = [text for ann in rows for value in ann.to_json_dict().values()
             for text in ([value] if isinstance(value, str) else value)]
    refusable = not utf8(*texts) or any(
        not name.strip() or label not in LABELS
        for ann in rows for name, label in ann.entities.items()
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "annotations.jsonl"
        if written(lambda p: save_annotations(annotations, p), path):
            assert load_annotations(path) == annotations
        else:
            assert refusable


RANGE = (dt.date(2018, 1, 1), dt.date(2023, 12, 31))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(
    Article, id=TEXT, org=TEXT, country=TEXT,
    published_at=st.dates(dt.date(2017, 12, 25), dt.date(2024, 1, 5)),
    title=TEXT, body=TEXT, url=st.none() | TEXT,
), max_size=4))
def test_a_written_corpus_ingests_as_written_or_is_not_written(articles):
    texts = [a.id + a.org + a.country + a.title + a.body + (a.url or "") for a in articles]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        if not written(lambda p: write_corpus_file(articles, p), path):
            assert not utf8(*texts)
            return
        result = ingest(path, RANGE)
    kept, rejected, ids = [], set(), set()
    for line_no, a in enumerate(articles, start=1):
        if a.id and a.body.strip() and RANGE[0] <= a.published_at <= RANGE[1] and a.id not in ids:
            kept.append(a)
            ids.add(a.id)
        else:
            rejected.add(line_no)
    assert {r.line_no for r in result.rejections} == rejected
    assert list(result.corpus) == sorted(kept, key=lambda a: (a.published_at, a.id))


# The characters XML 1.0 forbids that UTF-8 can encode; the chart writes
# U+FFFD for each.
NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")
NAME = st.lists(st.one_of(HOSTILE, st.sampled_from(["\x85", "\x00", "\x0b", "\ufffe", "&", "<"])),
                max_size=3).map("".join)
SVG_TEXT = "{http://www.w3.org/2000/svg}text"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(NAME, NAME), min_size=1, max_size=3))
def test_chart_names_parse_back_as_written_or_are_not_written(pairs):
    rows = [{"org": org, "entity": entity, "ps": 0.5, "delta_ps": 0.1} for org, entity in pairs]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chart.svg"
        if not written(lambda p: write_output(p, render_polarity_chart(rows)), path):
            assert not utf8(*(name for pair in pairs for name in pair))
            return
        texts = [el.text or "" for el in ElementTree.parse(path).iter(SVG_TEXT)]
    # The title and five tick labels, then the entities and the orgs, each sorted.
    names = [*sorted({entity for _, entity in pairs}), *sorted({org for org, _ in pairs})]
    assert texts[6:] == [NOT_XML.sub("\ufffd", name) for name in names]
