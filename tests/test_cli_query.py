"""Tests for the ``repro ingest`` / ``repro query`` CLI.

Exercises the exact command sequence the ``store-smoke`` CI job runs:
ingest a trajectory of BENCH snapshots, render cross-run analytics in
all three formats, and gate on ``repro query regressions`` — the gate
must exit nonzero when the latest run degraded past the bound.
"""

import csv
import io
import json

import pytest

from repro.cli import main
from repro.obs import Registry, make_snapshot, write_snapshot


def bench_file(path, rev, cells_per_sec, created):
    reg = Registry()
    reg.counter("runtime.executor.cells").add(12)
    reg.counter("runtime.executor.cells_simulated").add(12)
    reg.gauge("runtime.executor.cells_per_sec").set(cells_per_sec)
    reg.timer("runtime.executor.batch").observe(12 / cells_per_sec)
    snap = make_snapshot(reg, meta={"rev": rev})
    snap["created_unix"] = created
    return write_snapshot(snap, path)


@pytest.fixture()
def trajectory(tmp_path):
    """Three BENCH files (improving) and a degraded fourth."""
    files = [
        bench_file(tmp_path / "BENCH_r1.json", "r1", 6.0, 100.0),
        bench_file(tmp_path / "BENCH_r2.json", "r2", 15.0, 200.0),
        bench_file(tmp_path / "BENCH_r3.json", "r3", 16.0, 300.0),
    ]
    degraded = bench_file(tmp_path / "degraded.json", "r4", 4.0, 400.0)
    return files, degraded, tmp_path / "db.sqlite"


class TestIngestCli:
    def test_ingest_reports_sources_and_counts(self, trajectory, capsys):
        files, _, db = trajectory
        argv = ["ingest", *map(str, files), "--store", str(db)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "3 sources (3 new, 0 already ingested; 3 bench)" in out
        assert "3 runs" in out

    def test_reingest_is_idempotent(self, trajectory, capsys):
        files, _, db = trajectory
        argv = ["ingest", *map(str, files), "--store", str(db)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "(0 new, 3 already ingested" in out

    def test_unreadable_file_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "junk.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["ingest", str(bad),
                     "--store", str(tmp_path / "db.sqlite")]) == 2
        assert "error:" in capsys.readouterr().err


class TestQueryRendering:
    def _ingest(self, trajectory):
        files, _, db = trajectory
        main(["ingest", *map(str, files), "--store", str(db)])
        return db

    def test_table_output_is_aligned_and_complete(
            self, trajectory, capsys):
        db = self._ingest(trajectory)
        capsys.readouterr()
        assert main(["query", "cells-per-sec", "--by", "rev",
                     "--store", str(db)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["rev", "runs", "latest", "best"]
        assert set(lines[1]) <= {"-", " "}      # separator row
        assert [ln.split()[0] for ln in lines[2:]] == ["r1", "r2", "r3"]
        assert lines[2].split() == ["r1", "1", "6", "6"]

    def test_csv_output_parses(self, trajectory, capsys):
        db = self._ingest(trajectory)
        capsys.readouterr()
        assert main(["query", "runs", "--format", "csv",
                     "--store", str(db)]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["rev"] for r in rows] == ["r1", "r2", "r3"]
        assert float(rows[0]["cells_per_sec"]) == 6.0
        assert rows[0]["kind"] == "bench"

    def test_json_output_parses(self, trajectory, capsys):
        db = self._ingest(trajectory)
        capsys.readouterr()
        assert main(["query", "cells-per-sec", "--by", "run",
                     "--format", "json", "--store", str(db)]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["value"] for r in rows] == [6.0, 15.0, 16.0]

    def test_store_flag_works_before_the_subcommand(
            self, trajectory, capsys):
        db = self._ingest(trajectory)
        capsys.readouterr()
        assert main(["query", "--store", str(db), "runs"]) == 0
        assert "r1" in capsys.readouterr().out

    def test_metric_query_reads_any_snapshot_metric(
            self, trajectory, capsys):
        db = self._ingest(trajectory)
        capsys.readouterr()
        assert main(["query", "metric", "runtime.executor.cells",
                     "--by", "run", "--store", str(db)]) == 0
        out = capsys.readouterr().out
        assert out.count("12") == 3

    def test_missing_store_is_an_error(self, trajectory, tmp_path, capsys):
        # opening a store creates it, so an empty one queried for a
        # metric reports there is nothing to read — exit 2, not 1
        assert main(["query", "regressions",
                     "--store", str(tmp_path / "empty.sqlite")]) == 2
        assert "error:" in capsys.readouterr().err
        # so does a metric that no ingested run carries
        db = self._ingest(trajectory)
        capsys.readouterr()
        assert main(["query", "regressions", "--metric", "nope",
                     "--store", str(db)]) == 2
        assert "carries 'nope'" in capsys.readouterr().err


class TestRegressionGate:
    def test_healthy_trajectory_passes(self, trajectory, capsys):
        files, _, db = trajectory
        main(["ingest", *map(str, files), "--store", str(db)])
        capsys.readouterr()
        assert main(["query", "regressions", "--bound", "0.2",
                     "--store", str(db)]) == 0
        out = capsys.readouterr().out
        assert "ok runtime.executor.cells_per_sec" in out

    def test_degraded_latest_run_exits_nonzero(self, trajectory, capsys):
        # the acceptance scenario: committed baseline snapshots plus a
        # degraded synthetic snapshot — the gate must fail
        files, degraded, db = trajectory
        main(["ingest", *map(str, files), str(degraded),
              "--store", str(db)])
        capsys.readouterr()
        assert main(["query", "regressions", "--bound", "0.2",
                     "--store", str(db)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "-33" in out or "-0.33" in out  # 4.0 vs 6.0 baseline
        # the same drop passes when the metric is a cost
        assert main(["query", "regressions", "--bound", "0.2",
                     "--lower-is-better", "--store", str(db)]) == 0
        assert "ok runtime.executor.cells_per_sec" in capsys.readouterr().out

    def test_bound_is_respected(self, trajectory, capsys):
        files, degraded, db = trajectory
        main(["ingest", *map(str, files), str(degraded),
              "--store", str(db)])
        capsys.readouterr()
        # 4.0 vs the 6.0 baseline is a 33% drop: inside a 50% bound
        assert main(["query", "regressions", "--bound", "0.5",
                     "--store", str(db)]) == 0

    def test_explicit_baseline_rev(self, trajectory, capsys):
        files, degraded, db = trajectory
        main(["ingest", *map(str, files), str(degraded),
              "--store", str(db)])
        capsys.readouterr()
        # against r3 (16.0), the degraded 4.0 run is a 75% drop
        assert main(["query", "regressions", "--baseline", "r3",
                     "--bound", "0.5", "--store", str(db)]) == 1

    def test_future_store_schema_is_refused(self, trajectory, capsys):
        import sqlite3

        files, _, db = trajectory
        main(["ingest", *map(str, files), "--store", str(db)])
        con = sqlite3.connect(db)
        con.execute("UPDATE store_meta SET value = 'repro.store/2' "
                    "WHERE key = 'schema'")
        con.commit()
        con.close()
        capsys.readouterr()
        assert main(["query", "runs", "--store", str(db)]) == 2
        assert "repro.store/2" in capsys.readouterr().err


def filed_runs(db):
    """The store's runs, as ``repro query runs --format json`` lists
    them, plus each run's metric count."""
    from repro.store import ExperimentStore, runs_overview

    with ExperimentStore(db) as store:
        rows, _ = runs_overview(store)
        counts = [r["n"] for r in store.sql(
            "SELECT COUNT(m.name) AS n FROM runs r LEFT JOIN metrics m "
            "ON m.run_id = r.id GROUP BY r.id ORDER BY r.id")]
    return rows, counts


class TestRunWithStore:
    def test_driver_run_auto_ingests(self, tmp_path, capsys):
        db = tmp_path / "db.sqlite"
        snap = tmp_path / "snap.json"
        manifest = tmp_path / "manifest.json"
        assert main(["fig13", "--scale", "small", "--workloads", "spmv",
                     "--no-cache", "--manifest", str(manifest),
                     "--telemetry", str(snap), "--store", str(db)]) == 0
        # one invocation, one row: the manifest's cells and the
        # snapshot's metrics on the same run
        (row,), (metrics,) = filed_runs(db)
        entries = json.loads(manifest.read_text())["entries"]
        assert row["kind"] == "manifest"
        assert row["cells"] == len(entries) > 0
        assert row["failed"] == 0
        assert metrics > 0
        gauge = json.loads(snap.read_text())["gauges"][
            "runtime.executor.cells_per_sec"]["value"]
        assert row["cells_per_sec"] == pytest.approx(gauge, rel=1e-9)
        # the manifest file that run wrote is the same run
        capsys.readouterr()
        assert main(["ingest", str(manifest), "--store", str(db)]) == 0
        assert "(0 new, 1 already ingested" in capsys.readouterr().out
        assert len(filed_runs(db)[0]) == 1

    def test_failed_run_writes_and_files_its_record(self, tmp_path,
                                                     monkeypatch):
        from repro import obs
        from repro.runtime import SimTask

        def fail(task):
            raise RuntimeError("injected cell failure")

        monkeypatch.setattr(SimTask, "evaluate", fail)
        db = tmp_path / "db.sqlite"
        snap = tmp_path / "snap.json"
        trace = tmp_path / "trace.json"
        manifest = tmp_path / "manifest.json"
        assert main(["fig13", "--scale", "small", "--workloads", "spmv",
                     "--no-cache", "--retries", "0",
                     "--manifest", str(manifest), "--telemetry", str(snap),
                     "--trace", str(trace), "--store", str(db)]) == 1
        entries = json.loads(manifest.read_text())["entries"]
        assert entries
        assert all("injected cell failure" in e["error"] for e in entries)
        assert snap.exists() and trace.exists()
        (row,), _ = filed_runs(db)
        assert row["failed"] == row["cells"] == len(entries)
        assert not obs.enabled() and not obs.tracing_enabled()
