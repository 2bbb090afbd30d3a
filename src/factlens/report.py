"""Rendering: CSV/JSON tables and a deterministic SVG polarity chart.

Everything here is a pure function of its inputs. Floats in CSV cells
are fixed at 4 decimal places and JSON floats are rounded to 4 decimals,
so export -> parse -> export is byte-identical in both formats and the
SVG never changes between runs on the same data.

Also the one rule for reading input files (``reading``), the one decoder
of JSON input (``parse_json``) and the one writer of every file
(``write_output``); this module imports no package code.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
import re
import threading
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

_PALETTE = (
    "#4c72b0", "#dd8452", "#55a868", "#c44e52", "#8172b3",
    "#937860", "#da8bc3", "#8c8c8c", "#ccb974", "#64b5cd",
)

WIDTH, HEIGHT = 900, 420
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 70, 30, 50, 90
PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _y_for(ps: float) -> float:
    # ps in [-1, 1] maps linearly onto the plot band, +1 at the top.
    return MARGIN_TOP + (1.0 - ps) / 2.0 * PLOT_H


# The characters that XML 1.0 allows nowhere in a document, but UTF-8 can
# encode: unpaired surrogates are left for the writer to refuse.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")


def _esc(text: str) -> str:
    """text as SVG character data: markup escaped, a carriage return written
    as a character reference (a parser reads a raw one as a line feed), each
    character XML 1.0 forbids replaced by U+FFFD."""
    return _NOT_XML.sub("\ufffd", (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;").replace("\r", "&#13;")
    ))


def check_chart_rows(rows: Sequence[dict]) -> None:
    """ValueError unless every row has org, entity, a numeric ps in [-1, 1]
    and a numeric delta_ps >= 0."""
    for i, row in enumerate(rows):
        with reading(f"chart row {i}", "expected an object with numeric ps and delta_ps, "
                     "org and entity"):
            ps, delta = float(row["ps"]), float(row["delta_ps"])
            row["org"], row["entity"]
        if not -1.0 <= ps <= 1.0:
            raise ValueError(f"ps out of range: {ps}")
        if not delta >= 0.0:  # NaN fails too
            raise ValueError(f"delta_ps must be >= 0, got {delta}")


def render_polarity_chart(rows: Sequence[dict], title: str = "Entity polarity") -> str:
    """Grouped bar chart of polarity scores with error bars, as SVG text.

    Expects rows that pass check_chart_rows. Bars group by entity, one bar
    per organization; the y axis is fixed to [-1, 1] and error bars span
    ps +/- delta_ps (clipped to the axis).
    """
    check_chart_rows(rows)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH // 2}" y="28" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_esc(title)}</text>',
    ]
    if not rows:
        parts.append(
            f'<text x="{WIDTH // 2}" y="{HEIGHT // 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14" fill="#888888">'
            f"no data to plot</text>"
        )
        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    entities = sorted({str(r["entity"]) for r in rows})
    orgs = sorted({str(r["org"]) for r in rows})
    colors = {org: _PALETTE[i % len(_PALETTE)] for i, org in enumerate(orgs)}
    by_cell = {(str(r["entity"]), str(r["org"])): r for r in rows}

    # Axis, gridline at zero, and tick labels.
    y0 = _y_for(0.0)
    for tick in (-1.0, -0.5, 0.0, 0.5, 1.0):
        y = _y_for(tick)
        parts.append(
            f'<line x1="{MARGIN_LEFT}" y1="{_fmt(y)}" x2="{WIDTH - MARGIN_RIGHT}" '
            f'y2="{_fmt(y)}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{tick:+.1f}</text>'
        )
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{_fmt(y0)}" x2="{WIDTH - MARGIN_RIGHT}" '
        f'y2="{_fmt(y0)}" stroke="#333333" stroke-width="1"/>'
    )

    group_w = PLOT_W / len(entities)
    bar_w = group_w / (len(orgs) + 1)
    for gi, entity in enumerate(entities):
        gx = MARGIN_LEFT + gi * group_w
        parts.append(
            f'<text x="{_fmt(gx + group_w / 2)}" y="{HEIGHT - MARGIN_BOTTOM + 20}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f"{_esc(entity)}</text>"
        )
        for oi, org in enumerate(orgs):
            row = by_cell.get((entity, org))
            if row is None:
                continue
            ps, delta = float(row["ps"]), float(row["delta_ps"])
            x = gx + bar_w * (oi + 0.5)
            y_val = _y_for(ps)
            bar_top = min(y_val, y0)
            bar_h = abs(y_val - y0)
            parts.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(bar_top)}" width="{_fmt(bar_w)}" '
                f'height="{_fmt(bar_h)}" fill="{colors[org]}"/>'
            )
            lo = _y_for(max(-1.0, ps - delta))
            hi = _y_for(min(1.0, ps + delta))
            cx = x + bar_w / 2
            parts.append(
                f'<line x1="{_fmt(cx)}" y1="{_fmt(hi)}" x2="{_fmt(cx)}" '
                f'y2="{_fmt(lo)}" stroke="#222222" stroke-width="1.5"/>'
            )
            for cap_y in (hi, lo):
                parts.append(
                    f'<line x1="{_fmt(cx - 4)}" y1="{_fmt(cap_y)}" '
                    f'x2="{_fmt(cx + 4)}" y2="{_fmt(cap_y)}" '
                    f'stroke="#222222" stroke-width="1.5"/>'
                )

    # Legend, one swatch per organization.
    for oi, org in enumerate(orgs):
        lx = MARGIN_LEFT + oi * 140
        ly = HEIGHT - 28
        parts.append(
            f'<rect x="{lx}" y="{ly - 10}" width="12" height="12" fill="{colors[org]}"/>'
        )
        parts.append(
            f'<text x="{lx + 18}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{_esc(org)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cell_to_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def export_csv(rows: Sequence[dict], columns: Sequence[str] | None = None) -> str:
    """Rows as CSV text, each line ended by "\n"; floats fixed at 4 decimals,
    None as empty. A cell holding "\n" or "\r" is quoted. A first column
    name that would start the text with U+FEFF is a ValueError: a reader
    takes that for a byte order mark."""
    if columns is None:
        if not rows:
            raise ValueError("columns are required when exporting zero rows")
        columns = list(rows[0].keys())
    # A writer quotes a cell holding a character of its line terminator, so
    # each line is written ending in "\r\n" and then given its "\n".
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    lines = []
    for cells in (columns, *([_cell_to_text(row.get(c)) for c in columns] for row in rows)):
        buf.seek(0)
        buf.truncate()
        writer.writerow(cells)
        lines.append(buf.getvalue()[:-2] + "\n")
    if lines[0].startswith("\ufeff"):
        raise ValueError(f"column {columns[0]!r} starts with a byte order mark")
    return "".join(lines)


def parse_csv(text: str) -> list[dict]:
    """Inverse of export_csv up to cell text; values come back as strings.
    Blank lines are skipped, before the header too; a header that repeats a
    name, or a row whose cell count is not the header's, is a ValueError
    naming the line it ends on."""
    reader = csv.reader(io.StringIO(text))
    rows = filter(None, reader)
    header = next(rows, None)
    repeated = [name for name, count in Counter(header or ()).items() if count > 1]
    if repeated:
        raise ValueError(f"line {reader.line_num}: the header repeats {repeated[0]!r}")
    records = []
    for row in rows:
        if len(row) != len(header):
            raise ValueError(
                f"line {reader.line_num}: cell count {len(row)}, the header's {len(header)}"
            )
        records.append(dict(zip(header, row)))
    return records


_CONTAINERS = (dict, list, tuple)
_INDENT = "  "


@functools.cache
def _flat_encoder(depth: int) -> json.JSONEncoder:
    """The C encoder writing a container's items as indent=2 would at depth:
    no indent means json uses its C encoder, and the item separator carries
    the newline and indentation."""
    return json.JSONEncoder(ensure_ascii=False, separators=(",\n" + _INDENT * depth, ": "))


def _json_key(key) -> str:
    """A dict key as json writes it: a str as itself; a float, bool, None or
    int by its JSON text, quoted."""
    if isinstance(key, str):
        return json.encoder.encode_basestring(key)
    if key is None or isinstance(key, (int, float)):
        return f'"{_flat_encoder(0).encode(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _rounded(value):
    return round(value, 4) if isinstance(value, float) else value


def _flat(items) -> bool:
    return not any(isinstance(item, _CONTAINERS) for item in items)


def _write_json(value, depth: int, parts: list[str]) -> None:
    """Appends value as json.dumps(..., indent=2, ensure_ascii=False) writes
    it at nesting depth, floats rounded to 4 decimals. A container that
    holds scalars only is one C-encoder call, and so is a list of non-empty
    such dicts (a table); empty containers are [] and {}."""
    if not isinstance(value, _CONTAINERS) or not value:
        parts.append(_flat_encoder(0).encode(_rounded(value)))
        return
    is_dict = isinstance(value, dict)
    opening, closing = "{}" if is_dict else "[]"
    inner, outer = "\n" + _INDENT * (depth + 1), "\n" + _INDENT * depth
    if _flat(value.values() if is_dict else value):
        flat = (
            {key: _rounded(item) for key, item in value.items()} if is_dict
            else [_rounded(item) for item in value]
        )
        body = _flat_encoder(depth + 1).encode(flat)[1:-1]
        parts.append(opening + inner + body + outer + closing)
        return
    if not is_dict and all(isinstance(row, dict) and row and _flat(row.values()) for row in value):
        # Written at the rows' depth, '},' then a newline occurs only between
        # two rows (an encoded string holds no raw newline), so each such
        # boundary gets the rows' own brackets and indentation.
        rows = [{key: _rounded(item) for key, item in row.items()} for row in value]
        deeper = inner + _INDENT
        body = _flat_encoder(depth + 2).encode(rows)[2:-2]
        body = body.replace("}," + deeper + "{", inner + "}," + inner + "{" + deeper)
        parts.append("[" + inner + "{" + deeper + body + inner + "}" + outer + "]")
        return
    parts.append(opening)
    sep = inner
    for key, item in value.items() if is_dict else enumerate(value):
        parts.append(f"{sep}{_json_key(key)}: " if is_dict else sep)
        _write_json(item, depth + 1, parts)
        sep = "," + inner
    parts.append(outer + closing)


def export_json(rows) -> str:
    """Rows as pretty JSON with floats rounded to 4 decimals: the text of
    json.dumps(rows, indent=2, ensure_ascii=False) with every float value
    (not key) in a dict, list or tuple rounded first."""
    parts: list[str] = []
    _write_json(rows, 0, parts)
    parts.append("\n")
    return "".join(parts)


# What decoding malformed input raises: undecodable bytes, bad JSON or CSV,
# a wrong type or a missing key, deep nesting, a number too large for a float.
DECODE_ERRORS = (ValueError, KeyError, TypeError, AttributeError, RecursionError, OverflowError,
                 csv.Error)


_ESCAPE = re.compile(r"\\[uU]")  # one regex scan costs a third of two `in` scans


def encodable(value: Any, source: str) -> bool:
    """False when value, decoded from the JSON or Python-literal text source,
    holds an unpaired surrogate: a str that no writer can encode as UTF-8.
    Only an escape such as \\ud800 in source makes one, so a source with no
    \\u or \\U escape is taken at its word and value is not walked."""
    if not _ESCAPE.search(source):
        return True
    try:
        json.dumps(value, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    value = dict(pairs)
    if len(value) < len(pairs):
        repeated = next(key for key, count in Counter(key for key, _ in pairs).items() if count > 1)
        raise ValueError(f"an object repeats the key {repeated!r}")
    return value


# One decoder for every call: json.loads(..., object_pairs_hook=...) would
# build a new one each time.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def parse_json(text: str | bytes):
    """The one decoder of JSON the program reads from a file or the wire.
    Bytes are decoded as strict UTF-8 (json.loads alone would take UTF-16);
    a string holding an unpaired surrogate, or an object that repeats a
    key, is a ValueError."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    value = _DECODER.decode(text)
    if not encodable(value, text):
        raise ValueError("a string holds an unpaired surrogate")
    return value


@contextmanager
def reading(source: str | Path, what: str, line: int | None = None, error=ValueError):
    """Runs its body under the reading rule: a DECODE_ERRORS failure means the
    input is malformed, raised as error("<source>[:<line>]: <what> (<Type>: <detail>)")."""
    try:
        yield
    except DECODE_ERRORS as exc:
        where = source if line is None else f"{source}:{line}"
        raise error(f"{where}: {what} ({type(exc).__name__}: {exc})") from None


def read_json_lines(path: str | Path, read_row: Callable[[Any], None]) -> None:
    """Calls read_row(value) for the JSON value on each non-blank line in
    turn, each line decoded as UTF-8 on its own; a line that fails is
    ``<path>:<line>: not a valid row``."""
    with Path(path).open("rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            with reading(path, "not a valid row", line_no):
                line = raw.decode("utf-8")
                if line.strip():
                    read_row(parse_json(line))


# How deeply a table's values may nest. Exporting a value recurses once
# or twice per level, so one nested nearly as deep as the JSON decoder
# allows would overflow the stack on export.
_MAX_NESTING = 64


def _nesting(value: object) -> int:
    if isinstance(value, dict):
        value = list(value.values())
    return 1 + max(map(_nesting, value), default=0) if isinstance(value, list) else 0


def read_table(path: str | Path) -> list[dict]:
    """The rows of a table file: JSON (one object or a list of objects,
    nested at most _MAX_NESTING deep) when the name ends in .json, else
    CSV; a leading byte order mark is skipped. Any other content is a
    ValueError naming the file."""
    with reading(path, "not a table"):
        text = read_text(path)
        data = parse_json(text) if str(path).endswith(".json") else parse_csv(text)
        rows = data if isinstance(data, list) else [data]
        if not all(isinstance(row, dict) for row in rows):
            raise ValueError("expected an object or a list of objects")
        if _nesting(rows) > _MAX_NESTING:
            raise ValueError(f"values nest deeper than {_MAX_NESTING} levels")
    return rows


def read_text(path: str | Path) -> str:
    """A UTF-8 input file's text, less a leading byte order mark (so it is
    not part of a CSV's first column name); line ends are kept as they are."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        return fh.read()


def write_output(path: str | Path, text: str | Iterable[str]) -> Path:
    """The one writer of the program: text, or each string of an iterable
    in turn (streamed, never joined), written to path as UTF-8, its parent
    directories created. Returns the path.

    The file is whole or absent: the text goes to ``.tmp-<pid>-<thread id>``
    in the same directory, which then replaces path (a symlink there
    included); a failed write removes it and leaves path as it was. There
    is no fsync, so this holds for a killed process, not for power loss.
    Text that UTF-8 cannot encode is ``<path>: cannot write (<Type>: <detail>)``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".tmp-{os.getpid()}-{threading.get_ident()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, UnicodeEncodeError):
            raise ValueError(f"{path}: cannot write ({type(exc).__name__}: {exc})") from None
        raise
    return path


def export_table(
    rows: Sequence[dict],
    fmt: str,
    path: str | Path,
    columns: Sequence[str] | None = None,
) -> Path:
    """Write rows to path as csv or json; returns the path written."""
    if fmt == "csv":
        text = export_csv(rows, columns)
    elif fmt == "json":
        text = export_json(list(rows))
    else:
        raise ValueError(f"unknown table format {fmt!r}")
    return write_output(path, text)
