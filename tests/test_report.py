import csv
import io
import json
import os
import re
import stat
import tempfile
import threading
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factlens.report import (
    export_csv,
    export_json,
    export_table,
    parse_csv,
    parse_json,
    read_table,
    render_polarity_chart,
    write_output,
)


def rows_fixture():
    return [
        {"org": "Snopes", "entity": "Donald Trump", "ps": -0.61, "delta_ps": 0.0294},
        {"org": "PolitiFact", "entity": "Donald Trump", "ps": -0.48, "delta_ps": 0.02},
        {"org": "Snopes", "entity": "Joe Biden", "ps": 0.1, "delta_ps": 0.01},
    ]


def test_chart_zero_bar_sits_on_axis():
    svg = render_polarity_chart([{"org": "O", "entity": "E", "ps": 0.0, "delta_ps": 0.0}])
    assert 'height="0.00"' in svg
    assert 'y="190.00"' in svg  # the zero axis line of the fixed [-1, 1] band


def test_chart_bar_extends_to_value():
    svg = render_polarity_chart(
        [{"org": "Snopes", "entity": "Donald Trump", "ps": -0.61, "delta_ps": 0.0}]
    )
    # -0.61 of the 140 px half-axis is an 85.40 px bar below the axis.
    assert 'height="85.40"' in svg


def test_chart_deterministic_bytes():
    a = render_polarity_chart(rows_fixture())
    b = render_polarity_chart(rows_fixture())
    assert a == b
    assert "<svg" in a and a.endswith("</svg>\n")


def test_chart_empty_rows_placeholder():
    svg = render_polarity_chart([])
    assert "no data to plot" in svg


def test_chart_rejects_out_of_range():
    with pytest.raises(ValueError):
        render_polarity_chart([{"org": "O", "entity": "E", "ps": 1.5, "delta_ps": 0.0}])
    with pytest.raises(ValueError):
        render_polarity_chart([{"org": "O", "entity": "E", "ps": 0.5, "delta_ps": -0.1}])
    with pytest.raises(ValueError, match="delta_ps must be >= 0, got nan"):
        render_polarity_chart([{"org": "O", "entity": "E", "ps": 0.5, "delta_ps": float("nan")}])


@pytest.mark.parametrize(
    "row",
    [
        ["O", "E", 0.5, 0.0],
        "O,E,0.5,0.0",
        {"org": "O", "entity": "E", "delta_ps": 0.0},
        {"org": "O", "entity": "E", "ps": None, "delta_ps": 0.0},
        {"org": "O", "entity": "E", "ps": "high", "delta_ps": 0.0},
        {"entity": "E", "ps": 0.5, "delta_ps": 0.0},
        {"org": "O", "ps": 0.5, "delta_ps": 0.0},
    ],
    ids=["list", "string", "no-ps", "null-ps", "text-ps", "no-org", "no-entity"],
)
def test_chart_rejects_a_row_that_is_not_a_polarity_row(row):
    with pytest.raises(ValueError, match="chart row 1: expected an object"):
        render_polarity_chart([rows_fixture()[0], row])


def test_chart_replaces_characters_xml_forbids():
    rows = [{"org": "A\x01B", "entity": "E\x0b\ufffe", "ps": 0.5, "delta_ps": 0.1}]
    svg = render_polarity_chart(rows, title="T\x1f & <x>\t")
    texts = [el.text for el in ElementTree.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert {"A\ufffdB", "E\ufffd\ufffd", "T\ufffd & <x>\t"} <= set(texts)


def test_chart_keeps_a_carriage_return_in_a_name():
    """A raw carriage return would parse back as a line feed; it is written
    as a character reference, and only where a name holds one."""
    rows = [{"org": "Poli\rFact", "entity": "E\r\nF", "ps": 0.5, "delta_ps": 0.1}]
    svg = render_polarity_chart(rows, title="T\r & <x>")
    assert "\r" not in svg and svg.count("&#13;") == 3
    texts = [el.text for el in ElementTree.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert {"Poli\rFact", "E\r\nF", "T\r & <x>"} <= set(texts)
    assert "&#13;" not in render_polarity_chart(rows_fixture(), title="T\n")


def test_chart_has_one_bar_and_error_bar_per_row():
    svg = render_polarity_chart(rows_fixture())
    # 1 background + 3 bars + 2 legend swatches; error bars add 3 lines each.
    assert svg.count("<rect") == 1 + 3 + 2
    for org in ("Snopes", "PolitiFact"):
        assert org in svg


def test_csv_round_trip_bytes():
    columns = ("org", "entity", "ps", "delta_ps")
    first = export_csv(rows_fixture(), columns)
    reparsed = parse_csv(first)
    second = export_csv(reparsed, columns)
    assert first == second
    assert first.splitlines()[1] == "Snopes,Donald Trump,-0.6100,0.0294"


def test_csv_quotes_a_cell_holding_a_line_end():
    columns = ("org", "entity", "ps")
    rows = [{"org": "Poli\rFact", "entity": "a\r\nb", "ps": 0.5}, {"org": "x\ny", "entity": ""}]
    text = export_csv(rows, columns)
    assert text == 'org,entity,ps\n"Poli\rFact","a\r\nb",0.5000\n"x\ny",,\n'
    assert list(csv.reader(io.StringIO(text, newline=""))) == [
        list(columns), ["Poli\rFact", "a\r\nb", "0.5000"], ["x\ny", "", ""],
    ]
    assert export_csv(parse_csv(text), columns) == text


def test_csv_zero_rows_header_only():
    text = export_csv([], columns=("a", "b"))
    assert text == "a,b\n"
    assert parse_csv(text) == []


def test_parse_csv_skips_blank_lines_and_names_a_ragged_row():
    assert parse_csv("\na,b\n\n1,2\n\n") == [{"a": "1", "b": "2"}]
    with pytest.raises(ValueError, match="^line 4: cell count 1, the header's 2$"):
        parse_csv("a,b\n1,2\n\n3\n")
    with pytest.raises(ValueError, match="^line 3: cell count 3, the header's 2$"):
        parse_csv('a,b\n1,"x\ny",3\n')


def test_parse_csv_refuses_a_repeated_header_name():
    """Both cells stay in the file, so keeping one would drop the other."""
    with pytest.raises(ValueError, match="^line 2: the header repeats 'ps'$"):
        parse_csv("\norg,entity,ps,ps,delta_ps\nO,E,0.5,0.9,0.1\n")


def test_csv_three_rows_four_lines():
    text = export_csv(rows_fixture(), ("org", "entity", "ps", "delta_ps"))
    assert len(text.splitlines()) == 4


def test_csv_requires_columns_when_empty():
    with pytest.raises(ValueError):
        export_csv([])


def test_json_round_trip_bytes():
    first = export_json(rows_fixture())
    second = export_json(parse_json(first))
    assert first == second


def test_json_rounds_floats_to_four_decimals():
    text = export_json([{"x": 0.123456789}])
    assert parse_json(text) == [{"x": 0.1235}]


def test_export_table_writes_files(tmp_path):
    csv_path = export_table(rows_fixture(), "csv", tmp_path / "t.csv", ("org", "ps"))
    json_path = export_table(rows_fixture(), "json", tmp_path / "t.json")
    assert csv_path.read_text().startswith("org,ps\n")
    assert parse_json(json_path.read_text())[0]["org"] == "Snopes"
    with pytest.raises(ValueError):
        export_table(rows_fixture(), "xml", tmp_path / "t.xml")


def test_none_cells_round_trip():
    columns = ("a", "b")
    rows = [{"a": None, "b": 1}]
    text = export_csv(rows, columns)
    assert text.splitlines()[1] == ",1"
    assert export_csv(parse_csv(text), columns) == text


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_read_table_reads_what_export_table_wrote(tmp_path, fmt):
    path = export_table(rows_fixture(), fmt, tmp_path / f"t.{fmt}")
    parse = parse_csv if fmt == "csv" else parse_json
    assert read_table(path) == parse(path.read_text())
    (tmp_path / "one.json").write_text('{"org": "O"}')
    assert read_table(tmp_path / "one.json") == [{"org": "O"}]


@pytest.mark.parametrize(
    "name, data",
    [
        ("t.json", b"[1, 2]"), ("t.json", b'[{"org": '), ("t.json", b'"text"'), ("t.csv", b"\xff\n"),
        ("t.json", b"[" * 200_000 + b"]" * 200_000),
        ("t.json", b'[{"a": ' + b"[" * 800 + b"]" * 800 + b"}]"),
        ("t.csv", b"org,ps\nA,0.5\n\nB\n"), ("t.csv", b'org,ps\nA,0.5,"x\ny"\n'),
    ],
    ids=["rows-not-objects", "truncated-json", "json-string", "not-utf8", "deep-nesting",
         "nested-too-deep-to-export", "csv-short-row", "csv-long-row"],
)
def test_read_table_names_a_file_that_is_not_a_table(tmp_path, name, data):
    (tmp_path / name).write_bytes(data)
    with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path / name))}: not a table"):
        read_table(tmp_path / name)


# Cells that a CSV or JSON writer must quote, escape or refuse: quotes,
# commas, line ends, U+2028, a leading U+FEFF and lone surrogates.
HOSTILE = st.builds(
    lambda bom, parts: "\ufeff" * bom + "".join(parts),
    st.booleans(),
    st.lists(st.sampled_from(['"', ",", "\r", "\n", "\r\n", "\u2028", "\ud800", "\udfff",
                              "a", "é", " "]), max_size=5),
)


def utf8(*texts: str) -> bool:
    try:
        "".join(texts).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def assert_read_back_or_not_written(rows, fmt, expected, refusable, columns=None):
    """export_table then read_table gives expected, or the writer refuses
    without writing; it may refuse only when refusable."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"t.{fmt}"
        try:
            export_table(rows, fmt, path, columns)
        except ValueError:
            assert refusable
            assert list(Path(tmp).iterdir()) == []
            return
        assert read_table(path) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(HOSTILE, min_size=1, max_size=3, unique=True).flatmap(
    lambda columns: st.tuples(st.just(columns), st.lists(st.lists(
        HOSTILE, min_size=len(columns), max_size=len(columns)), max_size=3))))
def test_a_csv_table_reads_back_as_written_or_is_not_written(table):
    columns, cells = table
    rows = [dict(zip(columns, row)) for row in cells]
    texts = [*columns, *(cell for row in cells for cell in row)]
    refusable = not utf8(*texts) or columns[0].startswith("\ufeff")
    assert_read_back_or_not_written(rows, "csv", rows, refusable, columns)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.dictionaries(HOSTILE, st.one_of(
    HOSTILE, st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False)), max_size=3),
    max_size=3))
def test_a_json_table_reads_back_as_written_or_is_not_written(rows):
    """NaN is left out only because it never equals itself."""
    texts = [text for row in rows for item in row.items() for text in item if isinstance(text, str)]
    assert_read_back_or_not_written(rows, "json", round_floats(rows), not utf8(*texts))


def test_a_csv_column_named_with_a_leading_byte_order_mark_is_not_written(tmp_path):
    """read_text drops a leading U+FEFF, so the column would read back as 'a'."""
    with pytest.raises(ValueError, match=r"^column '\\ufeffa' starts with a byte order mark$"):
        export_table([{"\ufeffa": "x"}], "csv", tmp_path / "t.csv")
    assert list(tmp_path.iterdir()) == []


def round_floats(value):
    """The reference rounding for export_json: float values (not keys)
    rounded to 4 decimals, tuples made lists."""
    if isinstance(value, float):
        return round(value, 4)
    if isinstance(value, dict):
        return {k: round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round_floats(v) for v in value]
    return value


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(),
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from([-0.0, 0.0, 1e-5, 0.00005]),
    st.sampled_from(["},\n    {", "}", "{", "\n", "é\u2028"]),  # what the writer splices on
)
JSON_KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(st.dictionaries(JSON_KEYS, JSON_SCALARS, max_size=3), max_size=4),  # tables
        st.dictionaries(JSON_KEYS, inner, max_size=5),
        st.tuples(inner, inner),
    ),
    max_leaves=25,
)


@settings(max_examples=500, deadline=None)
@given(JSON_VALUES)
def test_json_writer_matches_pretty_dumps_of_rounded_values(value):
    expected = json.dumps(round_floats(value), indent=2, ensure_ascii=False) + "\n"
    assert export_json(value) == expected


@pytest.mark.parametrize("value", [{(1, 2): 1}, [{"a": [1, {(3,): 0}]}], [{1, 2}], {"a": [object()]}])
def test_json_writer_rejects_what_json_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(round_floats(value), indent=2)
    with pytest.raises(TypeError):
        export_json(value)


def test_write_output_streams_an_iterable(tmp_path):
    path = write_output(tmp_path / "a" / "b" / "out.txt", iter(["one ", "two\n", "\u00e9\n"]))
    assert path.read_bytes() == "one two\n\u00e9\n".encode("utf-8")


def test_interrupted_write_output_leaves_the_old_file_and_no_temp(tmp_path):
    path = write_output(tmp_path / "out.txt", "old\n")
    seen = []

    def lines():
        yield "new\n"
        seen.extend(p.name for p in tmp_path.iterdir())
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        write_output(path, lines())
    assert sorted(seen) == sorted([f".tmp-{os.getpid()}-{threading.get_ident()}", "out.txt"])
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    assert path.read_text() == "old\n"


def test_write_output_gives_the_mode_of_a_plain_open(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.open("w").close()
    written = write_output(tmp_path / "written.txt", "x")
    assert stat.S_IMODE(written.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


def test_write_output_replaces_a_symlink_not_its_target(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("kept")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    write_output(link, "new")
    assert not link.is_symlink() and link.read_text() == "new"
    assert target.read_text() == "kept"


def test_write_output_temp_name_does_not_grow_with_the_target(tmp_path):
    path = write_output(tmp_path / ("x" * 255), "ok")  # the usual file-name limit
    assert path.read_text() == "ok"


def test_write_output_that_cannot_encode_writes_nothing(tmp_path):
    path = tmp_path / "out.txt"
    with pytest.raises(ValueError) as info:
        write_output(path, ["ok\n", "bad \ud800 x\n"])
    assert str(info.value).startswith(f"{path}: cannot write (UnicodeEncodeError: ")
    assert list(tmp_path.iterdir()) == []
