import re

import pytest

from factlens.report import (
    export_csv,
    export_json,
    export_table,
    parse_csv,
    parse_json,
    read_table,
    render_polarity_chart,
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


def test_csv_zero_rows_header_only():
    text = export_csv([], columns=("a", "b"))
    assert text == "a,b\n"
    assert parse_csv(text) == []


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
    [("t.json", b"[1, 2]"), ("t.json", b'[{"org": '), ("t.json", b'"text"'), ("t.csv", b"\xff\n")],
    ids=["rows-not-objects", "truncated-json", "json-string", "not-utf8"],
)
def test_read_table_names_a_file_that_is_not_a_table(tmp_path, name, data):
    (tmp_path / name).write_bytes(data)
    with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path / name))}: not a table"):
        read_table(tmp_path / name)
