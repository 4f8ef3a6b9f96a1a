"""The HTML flight recorder: one self-contained file per database.

:func:`render_report` turns an experiment store into a single HTML
document with **no external assets** — inline CSS, inline SVG charts,
no scripts, no fonts, no URLs — so the file can be opened from a CI
artifact tab or mailed around and always renders.

Every number in the report comes from the same :mod:`repro.store.query`
functions that power ``repro query``, formatted through the same
``fmt_cell`` — the stall-share section is *defined* to match
``repro query stalls`` byte for byte, which the test suite pins.

Charts follow the house dataviz rules: a single-series sparkline for
cells/sec by rev (no legend — the title names the series), horizontal
stall-share bars with values in text ink (never in series color),
recessive gridlines, hover via SVG ``<title>``, and a dark theme
selected via ``prefers-color-scheme`` rather than inverted.
"""

from __future__ import annotations

import datetime
import html
from pathlib import Path

from ..store.query import (
    cell_outcomes,
    cells_per_sec,
    runs_overview,
    span_percentiles,
    stall_shares,
)
from ..store.store import ExperimentStore
from .snapshot import fmt_cell

# palette tokens (light, dark) — see the dataviz reference palette
_CSS = """
:root {
  --surface: #fcfcfb; --ink: #0b0b0b; --ink-2: #52514e;
  --muted: #898781; --grid: #e1e0d9; --series: #2a78d6;
  --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --ink: #ffffff; --ink-2: #c3c2b7;
    --grid: #2c2c2a; --series: #3987e5;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0 auto; padding: 2rem 1.5rem 4rem; max-width: 62rem;
  background: var(--surface); color: var(--ink);
  font: 15px/1.5 system-ui, sans-serif;
}
h1 { font-size: 1.4rem; margin: 0 0 0.25rem; }
h2 { font-size: 1.05rem; margin: 2.2rem 0 0.6rem; }
.sub { color: var(--ink-2); margin: 0 0 1.5rem; }
.heroes { display: flex; gap: 2.5rem; flex-wrap: wrap; margin: 1.4rem 0; }
.hero .v { font-size: 1.8rem; font-weight: 600; }
.hero .k { color: var(--ink-2); font-size: 0.85rem; }
table { border-collapse: collapse; width: 100%; font-size: 0.88rem;
        font-variant-numeric: tabular-nums; }
th { text-align: left; color: var(--ink-2); font-weight: 500; }
th, td { padding: 0.3rem 0.9rem 0.3rem 0;
         border-bottom: 1px solid var(--grid); }
td.num, th.num { text-align: right; }
.empty { color: var(--muted); }
svg text { fill: var(--ink-2); font: 11px system-ui, sans-serif; }
svg .val { fill: var(--ink); font-weight: 600; }
"""


def _esc(value) -> str:
    return html.escape(fmt_cell(value))


def _table(rows: list[dict], columns: list[str],
           empty: str = "no rows") -> str:
    """An HTML table over query rows, numbers right-aligned."""
    if not rows:
        return f'<p class="empty">{html.escape(empty)}</p>'
    numeric = {
        c for c in columns
        if all(isinstance(r.get(c), (int, float)) or r.get(c) is None
               for r in rows)
    }
    out = ["<table><thead><tr>"]
    for c in columns:
        cls = ' class="num"' if c in numeric else ""
        out.append(f"<th{cls}>{html.escape(c)}</th>")
    out.append("</tr></thead><tbody>")
    for r in rows:
        out.append("<tr>")
        for c in columns:
            cls = ' class="num"' if c in numeric else ""
            out.append(f"<td{cls}>{_esc(r.get(c))}</td>")
        out.append("</tr>")
    out.append("</tbody></table>")
    return "".join(out)


def _sparkline(rows: list[dict]) -> str:
    """Cells/sec by rev as an inline SVG sparkline (latest per rev).

    Single series, so no legend; each point carries a ``<title>``
    tooltip and the last point a direct value label.
    """
    points = [(r["rev"], r["latest"]) for r in rows
              if r.get("latest") is not None]
    if not points:
        return '<p class="empty">no throughput history ingested</p>'
    width, height = 640, 150
    left, right, top, bottom = 16, 84, 18, 34
    plot_w, plot_h = width - left - right, height - top - bottom
    top_val = max(v for _, v in points) or 1.0
    n = len(points)
    coords = []
    for i, (_, v) in enumerate(points):
        x = left + (plot_w * i / (n - 1) if n > 1 else plot_w / 2)
        y = top + plot_h * (1.0 - v / top_val)
        coords.append((x, y))
    path = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
    parts = [
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="cells per second by revision" '
        f'style="max-width:{width}px;width:100%">',
        # baseline + top gridline, recessive
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="var(--grid)"/>',
        f'<line x1="{left}" y1="{top}" x2="{left + plot_w}" y2="{top}" '
        f'stroke="var(--grid)" stroke-dasharray="2,3"/>',
        f'<text x="{left}" y="{top - 6}">{_esc(float(top_val))} '
        f'cells/sec</text>',
    ]
    if n > 1:
        parts.append(
            f'<polyline points="{path}" fill="none" '
            f'stroke="var(--series)" stroke-width="2"/>')
    for (rev, v), (x, y) in zip(points, coords):
        label = html.escape(f"{rev}: {fmt_cell(v)} cells/sec")
        parts.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" '
            f'fill="var(--series)" stroke="var(--surface)" '
            f'stroke-width="2"><title>{label}</title></circle>')
        parts.append(
            f'<text x="{x:.1f}" y="{height - 12}" '
            f'text-anchor="middle">{html.escape(str(rev)[:9])}</text>')
    lx, ly = coords[-1]
    parts.append(
        f'<text class="val" x="{lx + 10:.1f}" y="{ly + 4:.1f}">'
        f'{_esc(points[-1][1])}</text>')
    parts.append("</svg>")
    return "".join(parts)


def _stall_bars(rows: list[dict]) -> str:
    """Per-layer stall shares as labeled horizontal bars.

    The printed share values are the query rows' values through the
    query formatter — identical to ``repro query stalls``.
    """
    bars = [r for r in rows if r.get("stall_share") is not None]
    if not bars:
        return '<p class="empty">no traces ingested</p>'
    width, row_h = 640, 26
    label_w, value_w = 170, 70
    bar_w = width - label_w - value_w
    height = row_h * len(bars) + 8
    top_share = max(r["stall_share"] for r in bars) or 1.0
    parts = [
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="merge stall share by layer" '
        f'style="max-width:{width}px;width:100%">']
    for i, r in enumerate(bars):
        y = 4 + i * row_h
        w = bar_w * r["stall_share"] / top_share
        tip = html.escape(
            f"{r['layer']}: {fmt_cell(r['stalls'])} stalls / "
            f"{fmt_cell(r['merge_steps'])} merge steps")
        parts.append(
            f'<text x="{label_w - 8}" y="{y + 15}" text-anchor="end">'
            f'{html.escape(str(r["layer"]))}</text>')
        parts.append(
            f'<rect x="{label_w}" y="{y}" width="{max(w, 1):.1f}" '
            f'height="{row_h - 8}" rx="4" fill="var(--series)">'
            f'<title>{tip}</title></rect>')
        parts.append(
            f'<text class="val" x="{label_w + max(w, 1) + 8:.1f}" '
            f'y="{y + 15}">{_esc(r["stall_share"])}</text>')
    parts.append("</svg>")
    return "".join(parts)


def render_report(store: ExperimentStore,
                  title: str = "repro flight recorder") -> str:
    """Render the whole database as one self-contained HTML page."""
    run_rows, run_cols = runs_overview(store)
    rate_rows, _ = cells_per_sec(store, by="rev")
    cell_rows, cell_cols = cell_outcomes(store)
    stall_rows, stall_cols = stall_shares(store, by="layer")
    span_rows, span_cols = span_percentiles(store)
    latest = next((r["latest"] for r in reversed(rate_rows)
                   if r.get("latest") is not None), None)
    total_cells = sum(int(r.get("cells") or 0) for r in run_rows)
    failed = sum(int(r.get("failed") or 0) for r in run_rows)
    generated = datetime.datetime.now(datetime.timezone.utc) \
        .isoformat(timespec="seconds")
    heroes = [
        ("runs ingested", len(run_rows)),
        ("cells", total_cells),
        ("failed cells", failed),
        ("latest cells/sec", latest),
    ]
    hero_html = "".join(
        f'<div class="hero"><div class="v">{_esc(v)}</div>'
        f'<div class="k">{html.escape(k)}</div></div>'
        for k, v in heroes)
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{html.escape(title)}</title>
<style>{_CSS}</style>
</head>
<body>
<h1>{html.escape(title)}</h1>
<p class="sub">{html.escape(str(store.path))} &middot; generated
{html.escape(generated)}</p>
<div class="heroes">{hero_html}</div>
<h2>Throughput by revision</h2>
{_sparkline(rate_rows)}
<h2>Merge-stall share by layer</h2>
{_stall_bars(stall_rows)}
{_table(stall_rows, stall_cols, "no traces ingested")}
<h2>Runs</h2>
{_table(run_rows, run_cols, "no runs ingested")}
<h2>Cell outcomes by workload</h2>
{_table(cell_rows, cell_cols, "no cells ingested")}
<h2>Span durations (virtual ticks)</h2>
{_table(span_rows, span_cols, "no span histograms ingested")}
</body>
</html>
"""


def write_report(store: ExperimentStore, path: str | Path,
                 title: str = "repro flight recorder") -> Path:
    """Write :func:`render_report` output to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_report(store, title=title), encoding="utf-8")
    return path
