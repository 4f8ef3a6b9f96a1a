"""Plain-text tables for experiment results."""

from __future__ import annotations

from typing import Sequence


def text_table(headers: Sequence[str], rows: Sequence[Sequence],
               title: str = "") -> str:
    """Render rows as an aligned monospace table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(h.ljust(widths[k]) for k, h in enumerate(headers))
    lines.append(header)
    lines.append("-" * len(header))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[k])
                               for k, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def heatmap_table(row_labels: Sequence[str], col_labels: Sequence[str],
                  values, title: str = "") -> str:
    """Render a 2-D sweep (e.g. Figure 14) as a labeled grid."""
    headers = [""] + list(col_labels)
    rows = []
    for label, value_row in zip(row_labels, values):
        rows.append([label] + [f"{v:.2f}" for v in value_row])
    return text_table(headers, rows, title)
