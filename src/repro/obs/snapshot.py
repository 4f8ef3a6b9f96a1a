"""Machine-readable perf snapshots: schema, validation, diff, export.

One snapshot captures one run's metrics under a stable, versioned JSON
schema::

    {
      "schema": "repro.obs/1",
      "created_unix": 1722800000.0,
      "meta": {"rev": "1b7acf8", "python": "3.12.3", ...},
      "counters":   {"runtime.executor.cells": 123, ...},
      "gauges":     {"runtime.executor.cells_per_sec":
                     {"value": 4.2, "high_water": 4.2}, ...},
      "histograms": {"sim.core.cycles": {"count": ..., "total": ...,
                     "min": ..., "max": ..., "buckets": {"10": 3}}, ...},
      "timers":     {"sim.memsys.profile": {"count": ..., "total_s": ...,
                     "min_s": ..., "max_s": ...}, ...}
    }

Snapshots are what the ``repro stats`` CLI dumps and diffs, what
``repro ingest`` feeds the experiment store that ``repro query
regressions`` gates on, and what the benchmark harness appends to the
repo's perf trajectory as ``BENCH_<rev>.json``.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from pathlib import Path

from ..errors import ObsError
from .registry import Registry

#: bump on any breaking change to the snapshot layout
SCHEMA = "repro.obs/1"

_BODY_KINDS = ("counters", "gauges", "histograms", "timers")

_REQUIRED_FIELDS = {
    "gauges": ("value", "high_water"),
    "histograms": ("count", "total", "min", "max", "buckets"),
    "timers": ("count", "total_s", "min_s", "max_s"),
}


def current_rev(default: str = "unknown") -> str:
    """The short git revision of the working tree, if available."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=True,
        )
        return out.stdout.strip() or default
    except (OSError, subprocess.SubprocessError):
        return default


def worktree_dirty() -> bool:
    """True when the git worktree has uncommitted changes (False when
    git itself is unavailable — an unknown tree is not declared dirty)."""
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True,
            text=True,
            timeout=5,
            check=True,
        )
        return bool(out.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return False


def bench_rev(default: str = "unknown") -> str:
    """The label benchmark snapshots are filed under: the short git rev
    (``default`` when git is unavailable, instead of failing), with a
    ``-dirty`` suffix when the worktree is modified so a perf point is
    never misattributed to a clean commit."""
    rev = current_rev(default)
    if worktree_dirty():
        rev += "-dirty"
    return rev


def make_snapshot(registry: Registry, meta: dict | None = None) -> dict:
    """Serialize a registry into a schema-versioned snapshot dict."""
    full_meta = {
        "rev": current_rev(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    full_meta.update(registry.meta)
    full_meta.update(meta or {})
    snap = {
        "schema": SCHEMA,
        "created_unix": time.time(),
        "meta": full_meta,
    }
    snap.update(registry.as_dict())
    return snap


def validate_snapshot(snap: object) -> dict:
    """Check a snapshot against the schema; returns it on success.

    Raises :class:`~repro.errors.ObsError` describing the first
    violation found — this is the check the CI gate fails on.
    """
    if not isinstance(snap, dict):
        raise ObsError(f"snapshot must be a JSON object, got {type(snap).__name__}")
    schema = snap.get("schema")
    if schema != SCHEMA:
        raise ObsError(f"unsupported snapshot schema {schema!r}; expected {SCHEMA!r}")
    if not isinstance(snap.get("created_unix"), (int, float)):
        raise ObsError("snapshot is missing a numeric 'created_unix'")
    if not isinstance(snap.get("meta"), dict):
        raise ObsError("snapshot is missing the 'meta' object")
    for kind in _BODY_KINDS:
        section = snap.get(kind)
        if not isinstance(section, dict):
            raise ObsError(f"snapshot is missing the {kind!r} section")
        for name, data in section.items():
            if kind == "counters":
                if not isinstance(data, (int, float)):
                    raise ObsError(f"counter {name!r} must be a number, got {data!r}")
                continue
            if not isinstance(data, dict):
                raise ObsError(f"{kind[:-1]} {name!r} must be an object")
            missing = [f for f in _REQUIRED_FIELDS[kind] if f not in data]
            if missing:
                raise ObsError(f"{kind[:-1]} {name!r} is missing fields {missing}")
    return snap


def write_snapshot(snap: dict, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snap, indent=2, sort_keys=True) + "\n")
    return path


def load_snapshot(path: str | Path) -> dict:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise ObsError(f"snapshot not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ObsError(f"snapshot {path} is not valid JSON: {exc}") from None
    return validate_snapshot(data)


def write_bench_snapshot(snap: dict, directory: str | Path = ".") -> Path:
    """Append this run to the perf trajectory: ``BENCH_<rev>.json``.

    A rev can be benchmarked more than once (dirty tree, rerun at the
    same commit); rather than silently overwrite the earlier point,
    later runs land next to it as ``BENCH_<rev>-2.json``,
    ``BENCH_<rev>-3.json``, …  so the whole trajectory stays
    ingestable.
    """
    rev = snap.get("meta", {}).get("rev") or bench_rev()
    directory = Path(directory)
    path = directory / f"BENCH_{rev}.json"
    serial = 1
    while path.exists():
        serial += 1
        path = directory / f"BENCH_{rev}-{serial}.json"
    return write_snapshot(snap, path)


# ------------------------------------------------------------------- diff

def _scalar_of(kind: str, data) -> float:
    """The headline scalar of one metric (what diffs compare)."""
    if kind == "counters":
        return float(data)
    if kind == "gauges":
        return float(data["value"])
    if kind == "histograms":
        return data["total"] / data["count"] if data["count"] else 0.0
    return float(data["total_s"])  # timers


#: how the headline scalar of each kind should be read in a diff
_SCALAR_LABEL = {
    "counters": "count",
    "gauges": "value",
    "histograms": "mean",
    "timers": "total_s",
}


def iter_metrics(snap: dict):
    """Yield ``(name, kind, scalar)`` for every metric in a snapshot.

    ``kind`` is the singular form (``counter`` / ``gauge`` / ...) and
    ``scalar`` the same headline number diffs compare — the one shared
    flattening used by ``stats diff`` and the experiment store's
    ingest, so the two layers can never disagree on what a metric's
    value *is*.
    """
    for kind in _BODY_KINDS:
        for name, data in sorted(snap.get(kind, {}).items()):
            yield name, kind[:-1], _scalar_of(kind, data)


def diff_snapshots(a: dict, b: dict) -> list[dict]:
    """Compare two validated snapshots metric by metric.

    Returns one row per metric present in either snapshot:
    ``{"metric", "kind", "scalar", "a", "b", "delta", "ratio"}`` with
    ``a``/``b`` ``None`` for metrics only one side has, and ``ratio`` =
    b/a (``None`` when undefined).
    """
    rows: list[dict] = []
    for kind in _BODY_KINDS:
        names = sorted(set(a.get(kind, {})) | set(b.get(kind, {})))
        for name in names:
            in_a = name in a.get(kind, {})
            in_b = name in b.get(kind, {})
            va = _scalar_of(kind, a[kind][name]) if in_a else None
            vb = _scalar_of(kind, b[kind][name]) if in_b else None
            delta = (vb - va) if (in_a and in_b) else None
            ratio = None
            if in_a and in_b and va:
                ratio = vb / va
            rows.append(
                {
                    "metric": name,
                    "kind": kind[:-1],
                    "scalar": _SCALAR_LABEL[kind],
                    "a": va,
                    "b": vb,
                    "delta": delta,
                    "ratio": ratio,
                }
            )
    return rows


def fmt_cell(value) -> str:
    """A table cell: ``-`` for None, an integral float as an int,
    another float to six significant digits, anything else as ``str``."""
    if value is None:
        return "-"
    if isinstance(value, float):
        return str(int(value)) if value.is_integer() else f"{value:.6g}"
    return str(value)


def render_table(table: list[tuple[str, ...]]) -> str:
    """The ``repro stats`` and ``repro query`` text table: left-justified
    columns two spaces apart, and a rule under the header row
    (``table[0]``)."""
    widths = [max(len(row[c]) for row in table) for c in range(len(table[0]))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in table
    ]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def render_diff(rows: list[dict], *, changed_only: bool = False) -> str:
    """A diff as an aligned text table."""
    table = [("metric", "kind", "a", "b", "delta", "ratio")]
    for row in rows:
        if changed_only and row["delta"] == 0:
            continue
        table.append(
            (
                row["metric"],
                f"{row['kind']}/{row['scalar']}",
                fmt_cell(row["a"]),
                fmt_cell(row["b"]),
                fmt_cell(row["delta"]),
                "-" if row["ratio"] is None else f"{row['ratio']:.3f}",
            )
        )
    return render_table(table)


def render_snapshot(snap: dict) -> str:
    """One snapshot as an aligned text table (``repro stats dump``)."""
    meta = snap.get("meta", {})
    lines = [
        f"schema: {snap['schema']}",
        "meta: "
        + ", ".join(f"{k}={v}" for k, v in sorted(meta.items())),
    ]
    table = [("metric", "kind", "value")]
    for kind in _BODY_KINDS:
        for name, data in sorted(snap.get(kind, {}).items()):
            table.append(
                (
                    name,
                    f"{kind[:-1]}/{_SCALAR_LABEL[kind]}",
                    fmt_cell(_scalar_of(kind, data)),
                )
            )
    return "\n".join([*lines, render_table(table)])
