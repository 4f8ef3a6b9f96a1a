"""Cross-run analytics over the experiment database.

Each query returns plain ``list[dict]`` rows plus an ordered column
list, and :func:`render_rows` turns any of them into an aligned text
table, CSV, or JSON — the three output modes of ``repro query``.

The queries the project exists to answer each map onto one function:

* "cells/sec by rev"            → :func:`metric_history` (grouped)
* "stall share by kernel"       → :func:`stall_shares`
* "regressions vs baseline rev" → :func:`regressions` (the CI gate)
"""

from __future__ import annotations

import csv
import io
import json

from ..errors import StoreError
from ..obs.metrics import Histogram
from ..obs.snapshot import fmt_cell, render_table
from .ingest import DURATION_PREFIX, HEADLINE_METRIC
from .store import ExperimentStore

FORMATS = ("table", "csv", "json")


def render_rows(rows: list[dict], columns: list[str],
                fmt: str = "table") -> str:
    """Render query rows as an aligned table, CSV, or JSON."""
    if fmt == "json":
        return json.dumps(rows, indent=2, sort_keys=True)
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["" if row.get(c) is None else row.get(c)
                             for c in columns])
        return out.getvalue().rstrip("\n")
    if fmt != "table":
        raise StoreError(
            f"unknown output format {fmt!r}; known: {list(FORMATS)}")
    return render_table([tuple(columns)] + [
        tuple(fmt_cell(row.get(c)) for c in columns) for row in rows])


# ----------------------------------------------------------------- metrics

def metric_values(store: ExperimentStore, name: str) -> list[dict]:
    """Every run's value of one metric, oldest first.

    Snapshot runs carry their metrics verbatim; manifest and serve-job
    runs contribute the derived headline (cells/sec from their
    ``run_stats`` row) when ``name`` is the headline metric — so the
    query works across all source shapes.
    """
    rows = [dict(r) for r in store.sql(
        "SELECT r.id AS run_id, r.run_key, r.kind, r.rev, "
        "r.created_unix, m.value "
        "FROM runs r JOIN metrics m ON m.run_id = r.id "
        "WHERE m.name = ? ORDER BY r.created_unix, r.id", (name,))]
    if name == HEADLINE_METRIC:
        seen = {r["run_id"] for r in rows}
        derived = [dict(r) for r in store.sql(
            "SELECT r.id AS run_id, r.run_key, r.kind, r.rev, "
            "r.created_unix, s.cells_per_sec AS value "
            "FROM runs r JOIN run_stats s ON s.run_id = r.id "
            "WHERE s.cells_per_sec IS NOT NULL "
            "ORDER BY r.created_unix, r.id")]
        rows.extend(r for r in derived if r["run_id"] not in seen)
        rows.sort(key=lambda r: (r["created_unix"] or 0.0, r["run_id"]))
    return rows


METRIC_COLUMNS = {
    "rev": ["rev", "runs", "latest", "best"],
    "run": ["run", "kind", "rev", "value"],
}


def metric_history(store: ExperimentStore, name: str,
                   by: str = "rev") -> tuple[list[dict], list[str]]:
    """One metric across history, grouped ``by`` ``rev`` or ``run``."""
    values = metric_values(store, name)
    if by == "run":
        return [
            {"run": v["run_key"][:12], "kind": v["kind"],
             "rev": v["rev"], "value": v["value"]}
            for v in values
        ], METRIC_COLUMNS["run"]
    if by != "rev":
        raise StoreError(f"unknown grouping {by!r}; known: rev, run")
    grouped: dict[str, dict] = {}
    order: list[str] = []
    for v in values:
        rev = v["rev"] or "unknown"
        if rev not in grouped:
            grouped[rev] = {"rev": rev, "runs": 0,
                            "latest": None, "best": None}
            order.append(rev)
        g = grouped[rev]
        g["runs"] += 1
        g["latest"] = v["value"]        # values arrive oldest-first
        g["best"] = v["value"] if g["best"] is None else \
            max(g["best"], v["value"])
    return [grouped[rev] for rev in order], METRIC_COLUMNS["rev"]


def cells_per_sec(store: ExperimentStore,
                  by: str = "rev") -> tuple[list[dict], list[str]]:
    """The headline throughput metric across history."""
    return metric_history(store, HEADLINE_METRIC, by=by)


# ------------------------------------------------------------------- runs

RUNS_COLUMNS = ["run", "kind", "rev", "cells", "cached", "simulated",
                "failed", "cells_per_sec", "source"]


def runs_overview(store: ExperimentStore) -> tuple[list[dict], list[str]]:
    """Every ingested run with its aggregate stats, oldest first."""
    rows = [dict(r) for r in store.sql(
        "SELECT r.run_key, r.kind, r.rev, r.source, s.cells, s.cached, "
        "s.simulated, s.failed, s.cells_per_sec "
        "FROM runs r LEFT JOIN run_stats s ON s.run_id = r.id "
        "ORDER BY r.created_unix, r.id")]
    for row in rows:
        row["run"] = row.pop("run_key")[:12]
    return rows, RUNS_COLUMNS


# ------------------------------------------------------------------ cells

CELLS_COLUMNS = ["workload", "cells", "cached", "failed",
                 "avg_wall_s", "max_wall_s"]


def cell_outcomes(store: ExperimentStore, workload: str | None = None,
                  ) -> tuple[list[dict], list[str]]:
    """Per-workload cell outcome aggregates across every ingested run."""
    where = "WHERE workload = ?" if workload else ""
    params = (workload,) if workload else ()
    rows = [dict(r) for r in store.sql(
        f"SELECT workload, COUNT(*) AS cells, SUM(cached) AS cached, "
        f"SUM(error IS NOT NULL) AS failed, AVG(wall_time) AS "
        f"avg_wall_s, MAX(wall_time) AS max_wall_s "
        f"FROM cells {where} GROUP BY workload ORDER BY workload",
        params)]
    return rows, CELLS_COLUMNS


# ------------------------------------------------------------------ stalls

STALL_COLUMNS = {
    "layer": ["layer", "traces", "iterations", "merge_steps", "stalls",
              "stall_share"],
    "rev": ["rev", "traces", "merge_steps", "stalls", "stall_share"],
    "workload": ["workload", "traces", "merge_steps", "stalls",
                 "stall_share"],
}


def stall_shares(store: ExperimentStore, by: str = "layer",
                 ) -> tuple[list[dict], list[str]]:
    """TMU merge-stall shares from ingested traces, grouped ``by``
    ``layer`` (track), ``rev``, or ``workload`` (the trace's recorded
    workload filter — per-kernel attribution for single-kernel
    traces)."""
    if by not in STALL_COLUMNS:
        raise StoreError(
            f"unknown grouping {by!r}; known: "
            f"{sorted(STALL_COLUMNS)}")
    raw = store.sql(
        "SELECT t.run_id, t.track, t.args, r.rev, r.meta "
        "FROM trace_summaries t JOIN runs r ON r.id = t.run_id "
        "WHERE t.name = 'layer_summary' "
        "ORDER BY r.created_unix, r.id, t.track")
    grouped: dict[str, dict] = {}
    order: list[str] = []
    for row in raw:
        args = json.loads(row["args"])
        if by == "layer":
            key = row["track"]
        elif by == "rev":
            key = row["rev"] or "unknown"
        else:
            key = json.loads(row["meta"]).get("workloads") or "all"
        if key not in grouped:
            grouped[key] = {by: key, "traces": set(), "iterations": 0,
                            "merge_steps": 0, "stalls": 0}
            order.append(key)
        g = grouped[key]
        g["traces"].add(row["run_id"])
        g["iterations"] += int(args.get("iterations", 0))
        g["merge_steps"] += int(args.get("merge_steps", 0))
        g["stalls"] += int(args.get("stall_advances", 0))
    rows = []
    for key in order:
        g = grouped[key]
        g["traces"] = len(g["traces"])
        g["stall_share"] = round(g["stalls"] / g["merge_steps"], 4) \
            if g["merge_steps"] else None
        if by != "layer":
            g.pop("iterations")
        rows.append(g)
    return rows, STALL_COLUMNS[by]


# ------------------------------------------------------------------ spans

SPAN_COLUMNS = ["span", "traces", "count", "mean", "p50", "p95", "max"]


def span_percentiles(store: ExperimentStore,
                     ) -> tuple[list[dict], list[str]]:
    """Span-duration percentiles from ingested traces (virtual ticks).

    The ingest layer stores one power-of-two duration histogram per
    (track, span name) per trace; this merges them across every
    ingested trace and reads p50/p95 off the merged shape.
    """
    raw = store.sql(
        "SELECT t.run_id, t.track, t.name, t.args "
        "FROM trace_summaries t JOIN runs r ON r.id = t.run_id "
        "WHERE t.name LIKE ? ORDER BY r.created_unix, r.id, t.track",
        (DURATION_PREFIX + "%",))
    merged: dict[str, Histogram] = {}
    traces: dict[str, set] = {}
    order: list[str] = []
    for row in raw:
        span = f"{row['track']}/{row['name'][len(DURATION_PREFIX):]}"
        if span not in merged:
            merged[span] = Histogram(span)
            traces[span] = set()
            order.append(span)
        merged[span].merge(json.loads(row["args"]))
        traces[span].add(row["run_id"])
    rows = []
    for span in sorted(order):
        h = merged[span]
        rows.append({
            "span": span, "traces": len(traces[span]),
            "count": h.count, "mean": round(h.mean, 4),
            "p50": round(h.quantile(0.5), 4),
            "p95": round(h.quantile(0.95), 4),
            "max": h.max if h.count else None,
        })
    return rows, SPAN_COLUMNS


# ------------------------------------------------------------- regressions

REGRESSION_COLUMNS = ["run", "kind", "rev", "value", "change", "status"]


def regressions(store: ExperimentStore, *,
                metric: str = HEADLINE_METRIC,
                baseline: str | None = None,
                bound: float = 0.2,
                lower_is_better: bool = False,
                ) -> tuple[list[dict], list[str], bool]:
    """Every run's ``metric`` against a baseline run; the CI gate.

    The baseline is the oldest run carrying the metric, or — with
    ``baseline`` given — the newest run of that rev (``best`` selects
    the best value seen).  Returns ``(rows, columns, ok)`` where
    ``ok`` is False when the *latest* run regressed beyond ``bound``
    (a fraction; 0.2 = 20%) — the newest result is what a gate
    protects.
    """
    values = metric_values(store, metric)
    if not values:
        raise StoreError(f"no run in {store.path} carries {metric!r}")
    better = min if lower_is_better else max
    if baseline is None:
        base = values[0]
    elif baseline == "best":
        base = better(values, key=lambda v: v["value"])
    else:
        matching = [v for v in values if v["rev"] == baseline]
        if not matching:
            raise StoreError(
                f"no run with rev {baseline!r} carries {metric!r}")
        base = matching[-1]
    rows = []
    ok = True
    for v in values:
        if base["value"]:
            change = (v["value"] - base["value"]) / base["value"]
            regressed = (-change if not lower_is_better else change) \
                > bound
        else:
            change, regressed = None, False
        if v["run_id"] == base["run_id"]:
            status = "baseline"
            regressed = False
        else:
            status = "REGRESSION" if regressed else "ok"
        rows.append({
            "run": v["run_key"][:12], "kind": v["kind"],
            "rev": v["rev"], "value": v["value"],
            "change": None if change is None else round(change, 4),
            "status": status,
        })
    if rows and rows[-1]["status"] == "REGRESSION":
        ok = False
    return rows, REGRESSION_COLUMNS, ok
