"""CLI smoke tests: ``python -m repro`` with the runtime flags."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e.harness import (
    counter_mismatches,
    golden_counters,
    load_golden,
    rows_digest,
)
from repro import cli, runtime

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run_cli(*argv: str, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=300,
    )


class TestSubprocess:
    def test_help(self):
        proc = _run_cli("--help")
        assert proc.returncode == 0
        for flag in ("--jobs", "--cache-dir", "--no-cache", "--scale"):
            assert flag in proc.stdout

    def test_small_experiment_parallel_no_cache(self, tmp_path):
        proc = _run_cli("fig10", "--workloads", "spmv", "--jobs", "2",
                        "--no-cache", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "Figure 10" in proc.stdout
        assert "geomean" in proc.stdout
        assert "6 cells" in proc.stderr
        # one batch: its summary is the run's, printed once
        assert proc.stderr.count("runtime: 6 cells in") == 1
        # --no-cache must not create the default cache directory
        assert not (tmp_path / runtime.DEFAULT_CACHE_DIR).exists()

    def test_warm_cache_second_invocation(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = _run_cli("fig10", "--workloads", "spmv",
                        "--cache-dir", str(cache_dir), cwd=tmp_path)
        assert cold.returncode == 0, cold.stderr
        warm = _run_cli("fig10", "--workloads", "spmv",
                        "--cache-dir", str(cache_dir), cwd=tmp_path)
        assert warm.returncode == 0, warm.stderr
        assert "6 cached (100%)" in warm.stderr
        assert cold.stdout == warm.stdout
        manifests = list((cache_dir / "manifests").glob("run-*.json"))
        assert manifests, "manifest files should be written to the cache"

    def test_reference_run_never_reads_a_fast_run_cache(self, tmp_path):
        """``--reference`` implies no result cache and no walk tier: over
        a cache dir a fast run filled, it still computes every cell, and
        prints the fast run's rows."""
        cache_dir = tmp_path / "cache"
        fast = _run_cli("fig10", "--workloads", "spmv",
                        "--cache-dir", str(cache_dir), cwd=tmp_path)
        assert fast.returncode == 0, fast.stderr
        assert list((cache_dir / "walks").glob("*.json"))
        reference = _run_cli("fig10", "--workloads", "spmv", "--reference",
                             "--cache-dir", str(cache_dir), cwd=tmp_path)
        assert reference.returncode == 0, reference.stderr
        assert "0 cached (0%), 6 simulated" in reference.stderr
        assert reference.stdout == fast.stdout


class TestGolden:
    def test_all_matches_the_benchmark_golden_file(self, tmp_path):
        """``repro all`` prints the rows and counts the counters that
        ``benchmarks/e2e/golden.json`` pins for its ``all-cold``
        session: a change that moves any figure row or cache/core
        counter must regenerate that file on purpose."""
        golden = load_golden()["all-cold"]
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = REPO_SRC
        telemetry = tmp_path / "t.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "all", "--scale", "small",
             "--jobs", "1", "--cache-dir", str(tmp_path / "cache"),
             "--telemetry", str(telemetry)],
            capture_output=True, text=True, env=env, cwd=tmp_path,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        # every batch prints its summary, and the run-level one (the
        # last, over all the run's cells) comes once
        summaries = [line for line in proc.stderr.splitlines()
                     if line.startswith("runtime: ") and " cells in " in line]
        assert summaries.count(summaries[-1]) == 1
        run_cells = int(summaries[-1].split()[1])
        assert [int(s.split()[1]) for s in summaries].count(run_cells) == 1
        assert rows_digest(proc.stdout) == golden["rows"]
        assert counter_mismatches(golden["counters"],
                                  golden_counters(telemetry)) == []


class TestInProcess:
    """Faster checks through cli.main() directly."""

    @pytest.fixture(autouse=True)
    def _fresh_runtime(self):
        yield
        runtime.reset()

    def test_table5_needs_no_simulation(self, tmp_path, capsys):
        rc = cli.main(["table5", "--no-cache"])
        assert rc == 0
        assert "Table 5" in capsys.readouterr().out

    def test_unknown_workload_fails_cleanly(self, tmp_path, capsys):
        rc = cli.main(["fig10", "--workloads", "warp", "--no-cache",
                       "--retries", "0"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_cache_maintenance_commands(self, tmp_path, capsys):
        cache_dir = tmp_path / "c"
        rc = cli.main(["fig10", "--workloads", "spmv",
                       "--cache-dir", str(cache_dir)])
        assert rc == 0
        assert cli.main(["cache-gc", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr()
        assert "6 live" in out.out
        assert cli.main(["cache-clear", "--cache-dir",
                         str(cache_dir)]) == 0
        assert "removed 6 entries" in capsys.readouterr().out

    @pytest.mark.parametrize("action", ["cache-gc", "cache-clear"])
    def test_cache_maintenance_creates_no_missing_cache(self, tmp_path,
                                                        capsys, action):
        cache_dir = tmp_path / "nodir" / "c"
        assert cli.main([action, "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert f"{action}: no result cache at {cache_dir}" in out
        assert f"no walk cache at {cache_dir / 'walks'}" in out
        assert not (tmp_path / "nodir").exists()

        # a pinned walk directory that is missing is left missing too
        walk_dir = tmp_path / "w"
        cache_dir.mkdir(parents=True)
        assert cli.main([action, "--cache-dir", str(cache_dir),
                         "--walk-cache", str(walk_dir)]) == 0
        assert f"no walk cache at {walk_dir}" in capsys.readouterr().out
        assert not walk_dir.exists()
        assert list(cache_dir.iterdir()) == []

    @pytest.mark.parametrize("pinned", [False, True])
    def test_cache_maintenance_reaches_the_walk_tier(self, tmp_path,
                                                     capsys, pinned):
        from repro.sim.memsys import WALK_SCHEMA

        cache_dir = tmp_path / "c"
        walk_dir = tmp_path / "w" if pinned else cache_dir / "walks"
        flags = ["--cache-dir", str(cache_dir)]
        if pinned:
            flags += ["--walk-cache", str(walk_dir)]
        walks = runtime.WalkStore(walk_dir)
        for digest, schema in (("ab" * 32, WALK_SCHEMA),
                               ("cd" * 32, "repro.walk/0")):
            walks.save(digest, {"schema": schema, "profiles": [],
                                "levels": []})
        assert cli.main(["cache-gc", *flags]) == 0
        assert f"reclaimed 1 stale walks from {walk_dir} (1 live)" in (
            capsys.readouterr().out)
        assert walks.load("ab" * 32)[0] is not None
        assert cli.main(["cache-clear", *flags]) == 0
        assert f"removed 1 walks from {walk_dir}" in (
            capsys.readouterr().out)
        assert len(walks) == 0
