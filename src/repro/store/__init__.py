"""``repro.store`` — the queryable experiment database.

Results used to live in four disconnected shapes: per-cell JSON cache
files, ``BENCH_<rev>.json`` trajectory snapshots, ``benchmarks/
results/`` text dumps, and serve-job journals.  This package folds all
of them into one SQLite database (schema ``repro.store/1``) so
cross-run analytics — "cells/sec by rev", "stall share by kernel
across history", "regressions vs baseline rev" — are each one query::

    from repro.store import ExperimentStore, ingest_paths, cells_per_sec

    with ExperimentStore("results.sqlite") as store:
        ingest_paths(store, ["BENCH_a3e8009.json", ".repro-cache/manifests"])
        rows, columns = cells_per_sec(store, by="rev")

The same layer backs the ``repro ingest`` / ``repro query`` CLI and
the ``store-smoke`` CI gate.  Behind a ``--store`` flag, two writers
file runs as they finish, each once: the CLI files an experiment
invocation as one ``manifest`` run (with its snapshot and trace), and
the serve scheduler files each finished job as one ``serve-job`` run
— local analytics and CI gating share one code path.

Rows are content-addressed on the existing sha256 task hashes and a
sha256 over each ingested source, so ingest is idempotent and the
database is trivially partitionable later.
"""

from __future__ import annotations

from .ingest import (
    HEADLINE_METRIC,
    ingest_file,
    ingest_job,
    ingest_manifest,
    ingest_paths,
    ingest_snapshot,
    ingest_trace,
)
from .query import (
    FORMATS,
    cell_outcomes,
    cells_per_sec,
    metric_history,
    metric_values,
    regressions,
    render_rows,
    runs_overview,
    stall_shares,
)
from .schema import RUN_KINDS, STORE_SCHEMA, open_db
from .store import DEFAULT_STORE_PATH, ExperimentStore

__all__ = [
    "STORE_SCHEMA",
    "RUN_KINDS",
    "DEFAULT_STORE_PATH",
    "HEADLINE_METRIC",
    "FORMATS",
    "ExperimentStore",
    "open_db",
    "ingest_file",
    "ingest_paths",
    "ingest_manifest",
    "ingest_snapshot",
    "ingest_job",
    "ingest_trace",
    "metric_values",
    "metric_history",
    "cells_per_sec",
    "runs_overview",
    "cell_outcomes",
    "stall_shares",
    "regressions",
    "render_rows",
]
