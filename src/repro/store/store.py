""":class:`ExperimentStore` — the handle every layer shares.

A thin, transaction-per-call wrapper over the SQLite database defined
in :mod:`repro.store.schema`.  Writers (the ingest layer, which the
CLI and the serve scheduler call as runs finish) and readers (the
query layer, the CLI) all go through this one class; connections are
cheap to open, so writers open one per ingest and multiple processes
coordinate through SQLite's own locking.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path

from ..errors import StoreError
from .schema import RUN_KINDS, open_db

#: default on-disk location (relative to the working directory);
#: the CLI and README document it, .gitignore covers it.
DEFAULT_STORE_PATH = ".repro-store.sqlite"


class ExperimentStore:
    """One open experiment database.

    Usable as a context manager; all writes are committed per method
    call, so a crash between calls never leaves a torn row behind.
    """

    def __init__(self, path: str | Path = DEFAULT_STORE_PATH) -> None:
        self.path = Path(path)
        self._con: sqlite3.Connection | None = open_db(self.path)

    # ------------------------------------------------------------ plumbing

    @property
    def con(self) -> sqlite3.Connection:
        if self._con is None:
            raise StoreError(f"store {self.path} is closed")
        return self._con

    def close(self) -> None:
        if self._con is not None:
            self._con.close()
            self._con = None

    def __enter__(self) -> "ExperimentStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -------------------------------------------------------------- writes

    def add_run(self, *, run_key: str, kind: str, rev: str | None,
                created_unix: float | None, source: str | None,
                meta: dict | None = None) -> tuple[int, bool]:
        """Insert a run row; returns ``(run_id, created)``.

        ``run_key`` is a content address of the ingested source, so
        feeding the same file twice finds the existing row
        (``created=False``) and the caller skips its child rows —
        double-ingest is a no-op by construction.
        """
        if kind not in RUN_KINDS:
            raise StoreError(
                f"unknown run kind {kind!r}; known: {list(RUN_KINDS)}")
        with self.con as con:
            row = con.execute(
                "SELECT id FROM runs WHERE run_key = ?", (run_key,)
            ).fetchone()
            if row is not None:
                return row["id"], False
            cur = con.execute(
                "INSERT INTO runs (run_key, kind, rev, created_unix, "
                "source, meta) VALUES (?, ?, ?, ?, ?, ?)",
                (run_key, kind, rev, created_unix, source,
                 json.dumps(meta or {}, sort_keys=True)))
            return cur.lastrowid, True

    def add_cells(self, run_id: int, rows: list[dict]) -> int:
        """Attach per-cell outcome rows to a run."""
        with self.con as con:
            con.executemany(
                "INSERT OR REPLACE INTO cells (run_id, task_hash, "
                "workload, input_id, scale, variants, cached, "
                "wall_time, attempts, error) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [(run_id, r["task_hash"], r.get("workload"),
                  r.get("input_id"), r.get("scale"),
                  r.get("variants"), int(bool(r.get("cached"))),
                  float(r.get("wall_time", 0.0)),
                  int(r.get("attempts", 0)), r.get("error"))
                 for r in rows])
        return len(rows)

    def set_run_stats(self, run_id: int, *, cells: int, cached: int,
                      simulated: int, failed: int, wall_time: float,
                      cells_per_sec: float | None) -> None:
        with self.con as con:
            con.execute(
                "INSERT OR REPLACE INTO run_stats (run_id, cells, "
                "cached, simulated, failed, wall_time, cells_per_sec) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                (run_id, cells, cached, simulated, failed, wall_time,
                 cells_per_sec))

    def add_metrics(self, run_id: int,
                    rows: list[tuple[str, str, float]]) -> int:
        """Attach flattened ``(name, kind, scalar)`` metrics to a run."""
        with self.con as con:
            con.executemany(
                "INSERT OR REPLACE INTO metrics (run_id, name, kind, "
                "value) VALUES (?, ?, ?, ?)",
                [(run_id, name, kind, float(value))
                 for name, kind, value in rows])
        return len(rows)

    def add_trace_summaries(self, run_id: int,
                            rows: list[tuple[str, str, dict]]) -> int:
        """Attach ``(track, name, args)`` summary spans to a run."""
        with self.con as con:
            con.executemany(
                "INSERT OR REPLACE INTO trace_summaries (run_id, "
                "track, name, args) VALUES (?, ?, ?, ?)",
                [(run_id, track, name,
                  json.dumps(args or {}, sort_keys=True))
                 for track, name, args in rows])
        return len(rows)

    # --------------------------------------------------------------- reads

    def sql(self, query: str, params: tuple = ()) -> list[sqlite3.Row]:
        """Run a read-only query (the query layer's escape hatch)."""
        return self.con.execute(query, params).fetchall()

    def counts(self) -> dict[str, int]:
        """Row counts per table (the CLI's ingest summary)."""
        out = {}
        for table in ("runs", "cells", "run_stats", "metrics",
                      "trace_summaries"):
            out[table] = self.sql(
                f"SELECT COUNT(*) AS n FROM {table}")[0]["n"]
        return out
