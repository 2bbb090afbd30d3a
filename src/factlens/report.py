"""Rendering: CSV/JSON tables and a deterministic SVG polarity chart.

Everything here is a pure function of its inputs. Floats in CSV cells
are fixed at 4 decimal places and JSON floats are rounded to 4 decimals,
so export -> parse -> export is byte-identical in both formats and the
SVG never changes between runs on the same data.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Sequence

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


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def render_polarity_chart(rows: Sequence[dict], title: str = "Entity polarity") -> str:
    """Grouped bar chart of polarity scores with error bars, as SVG text.

    Expects rows with org, entity, ps, delta_ps; any other row is a
    ValueError. Bars group by entity, one bar per organization; the y
    axis is fixed to [-1, 1] and error bars span ps +/- delta_ps (clipped
    to the axis).
    """
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

    for i, row in enumerate(rows):
        try:
            ps, delta = float(row["ps"]), float(row["delta_ps"])
            row["org"], row["entity"]
        except (TypeError, KeyError, ValueError, OverflowError) as exc:
            raise ValueError(
                f"chart row {i}: expected an object with numeric ps and delta_ps, "
                f"org and entity ({type(exc).__name__}: {exc})"
            ) from None
        if not -1.0 <= ps <= 1.0:
            raise ValueError(f"ps out of range: {ps}")
        if not delta >= 0.0:  # NaN fails too
            raise ValueError(f"delta_ps must be >= 0, got {delta}")

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
    """Rows as CSV text; floats fixed at 4 decimals, None as empty."""
    if columns is None:
        if not rows:
            raise ValueError("columns are required when exporting zero rows")
        columns = list(rows[0].keys())
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell_to_text(row.get(c)) for c in columns])
    return buf.getvalue()


def parse_csv(text: str) -> list[dict]:
    """Inverse of export_csv up to cell text; values come back as strings."""
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows:
        return []
    header = rows[0]
    return [dict(zip(header, row)) for row in rows[1:]]


def _round_floats(value):
    if isinstance(value, float):
        return round(value, 4)
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v) for v in value]
    return value


def export_json(rows) -> str:
    """Rows as pretty JSON with floats rounded to 4 decimals."""
    return json.dumps(_round_floats(rows), indent=2, ensure_ascii=False) + "\n"


def parse_json(text: str):
    return json.loads(text)


def read_table(path: str | Path) -> list[dict]:
    """The rows of a table file: JSON (one object or a list of objects) when
    the name ends in .json, else CSV. Any other content is a ValueError
    naming the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        data = parse_json(text) if str(path).endswith(".json") else parse_csv(text)
        rows = data if isinstance(data, list) else [data]
        if not all(isinstance(row, dict) for row in rows):
            raise ValueError("expected an object or a list of objects")
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"{path}: not a table ({exc})") from None
    return rows


def read_csv_records(path: str | Path) -> list[dict]:
    """The rows of a UTF-8 CSV file keyed by its header (csv.DictReader's
    rows). Undecodable text or a malformed CSV (say, a field over the csv
    module's size limit) is a ValueError naming the file."""
    try:
        with Path(path).open("r", encoding="utf-8", newline="") as fh:
            return list(csv.DictReader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValueError(f"{path}: not a readable CSV file ({exc})") from None


def export_table(
    rows: Sequence[dict],
    fmt: str,
    path: str | Path,
    columns: Sequence[str] | None = None,
) -> Path:
    """Write rows to path as csv or json; returns the path written."""
    path = Path(path)
    if fmt == "csv":
        text = export_csv(rows, columns)
    elif fmt == "json":
        text = export_json(list(rows))
    else:
        raise ValueError(f"unknown table format {fmt!r}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path
