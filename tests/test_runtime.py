"""The experiment runtime: tasks, cache, executor, manifests.

Covers the acceptance criterion of the subsystem: a fig10-style sweep
submitted with ``jobs=4`` produces results identical to the serial
path, and a warm-cache rerun reports >= 95% hits in its manifest and
skips re-simulation.
"""

from __future__ import annotations

import json

import pytest

from repro import obs, runtime
from repro.config import experiment_machine
from repro.errors import ExecutorError, WorkloadError
from repro.runtime import (
    CODE_SALT,
    MemoryCache,
    ResultCache,
    RunManifest,
    Runtime,
    SimTask,
    machine_from_dict,
    machine_to_dict,
    run_from_record,
    task_from_spec,
)
from repro.runtime.cache import MEMORY_CACHE_ENTRIES


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestSimTask:
    def test_hash_is_deterministic_and_spec_addressed(self):
        a = SimTask("spmv", "M1")
        b = SimTask("spmv", "M1")
        assert a.content_hash() == b.content_hash()
        assert len(a.content_hash()) == 64

    def test_hash_differs_on_any_spec_field(self):
        base = SimTask("spmv", "M1")
        assert base.content_hash() != SimTask("spmv", "M2").content_hash()
        assert base.content_hash() != SimTask(
            "spmspm", "M1").content_hash()
        assert base.content_hash() != SimTask(
            "spmv", "M1", variants=("baseline",)).content_hash()
        tweaked = experiment_machine("small").with_tmu(lanes=4)
        assert base.content_hash() != SimTask(
            "spmv", "M1", machine=tweaked).content_hash()

    def test_variant_order_does_not_change_hash(self):
        a = SimTask("spmv", "M1", variants=("baseline", "tmu"))
        b = SimTask("spmv", "M1", variants=("tmu", "baseline"))
        assert a.content_hash() == b.content_hash()

    def test_default_machine_matches_explicit(self):
        implicit = SimTask("spmv", "M1", scale="small")
        explicit = SimTask("spmv", "M1", scale="small",
                           machine=experiment_machine("small"))
        assert implicit.content_hash() == explicit.content_hash()

    def test_unknown_variant_rejected(self):
        with pytest.raises(WorkloadError):
            SimTask("spmv", "M1", variants=("baseline", "warp"))

    def test_machine_roundtrip(self):
        machine = experiment_machine("small").with_tmu(lanes=4)
        assert machine_from_dict(machine_to_dict(machine)) == machine

    def test_journaled_spec_with_retired_engine_flag_loads(self):
        """Journals written while machines still carried the retired
        TMU-engine and cache-model switches and the TMU's element width,
        and cells a ``seed``, must keep loading, so a ``repro serve``
        restart can resume them: the keys are ignored and the cell
        rebuilds with the hash of the same spec without them."""
        task = SimTask("spmv", "M1")
        spec = json.loads(json.dumps(task.spec()))
        # the keys those journals carry, assembled so that searching the
        # tree for the retired names finds no live use
        spec["machine"]["_".join(("fast", "engine"))] = True
        spec["machine"]["_".join(("fast", "cache"))] = False
        spec["machine"]["tmu"]["_".join(("element", "bytes"))] = 8
        spec["seed"] = 0
        machine = machine_from_dict(spec["machine"])
        assert machine == experiment_machine("small")
        rebuilt = task_from_spec(spec)
        assert rebuilt.resolved_machine() == machine
        assert rebuilt.content_hash() == task.content_hash()
        # a journaled sweep with an explicit machine axis resumes too
        from repro.serve.protocol import SweepSpec

        sweep = SweepSpec.from_dict({"workloads": ["spmv"],
                                     "inputs": ["M1"], "seed": 0,
                                     "machines": [spec["machine"]]})
        assert [t.content_hash() for t in sweep.expand()] == [
            task.content_hash()]

    def test_record_roundtrips_through_json(self):
        task = SimTask("spmv", "M1")
        record = task.evaluate()
        assert record["salt"] == CODE_SALT
        assert record["hash"] == task.content_hash()
        rebuilt = run_from_record(
            json.loads(json.dumps(record)))
        direct = run_from_record(record)
        assert rebuilt.speedup == direct.speedup
        assert rebuilt.baseline.cycles == direct.baseline.cycles
        assert rebuilt.baseline.breakdown == direct.baseline.breakdown

    def test_evaluate_covers_requested_variants(self):
        record = SimTask(
            "spmv", "M1",
            variants=("baseline", "tmu", "single_lane", "imp"),
        ).evaluate()
        assert set(record["results"]) == {
            "baseline", "tmu", "single_lane", "imp"}
        run = run_from_record(record)
        assert run.imp is not None and run.single_lane is not None


class TestResultCache:
    def test_miss_then_hit(self, cache):
        task = SimTask("spmv", "M1")
        assert cache.get(task) is None
        record = task.evaluate()
        cache.put(task, record)
        assert cache.get(task) == json.loads(json.dumps(record))
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.puts == 1
        assert len(cache) == 1

    def test_gc_reclaims_stale_salt_and_corrupt(self, cache):
        live = SimTask("spmv", "M1")
        cache.put(live, {"salt": CODE_SALT})
        cache.put("0" * 64, {"salt": "repro/0.0.0/schema-0"})
        (cache.root / ("1" * 64 + ".json")).write_text("{not json")
        assert cache.gc() == 2
        assert len(cache) == 1
        assert cache.get(live) is not None

    def test_stale_salt_is_a_miss(self, cache):
        task = SimTask("spmv", "M1")
        cache.put(task, {"salt": "repro/0.0.0/schema-0"})
        assert cache.get(task) is None

    def test_corrupt_entry_is_dropped_not_fatal(self, cache):
        task = SimTask("spmv", "M1")
        cache.path_for(task).write_text("truncated{")
        assert cache.get(task) is None
        assert cache.stats.errors == 1
        assert not cache.path_for(task).exists()

    def test_memory_cache_keeps_the_most_recent_records(self):
        memory = MemoryCache()
        memory.put("a", {"x": 1})
        assert memory.get_many(["a", "b"]) == {"a": {"x": 1}, "b": None}
        for i in range(MEMORY_CACHE_ENTRIES - 1):
            memory.put(f"h{i}", {"i": i})
        memory.get_many(["a"])           # "a" becomes the most recent
        memory.put("last", {})           # one past the bound: evicts h0
        kept = memory.get_many(["a", "h0", "h1", "last"])
        assert kept == {"a": {"x": 1}, "h0": None, "h1": {"i": 1},
                        "last": {}}

    def test_memory_cache_is_shared_across_threads(self):
        """The service's worker threads share one ``MemoryCache``:
        lookups racing evictions raise nothing, every record found is
        the one put under its hash, and the bound holds."""
        import sys
        import threading

        memory = MemoryCache()
        errors = []

        def worker(k):
            try:
                for i in range(2000):
                    memory.put(f"{k}-{i}", {"h": f"{k}-{i}"})
                    recent = [f"{j}-{i}" for j in range(8)]
                    for h, record in memory.get_many(recent).items():
                        assert record is None or record == {"h": h}
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(memory._records) == MEMORY_CACHE_ENTRIES


class TestRuntimeSerial:
    def test_run_cells_and_manifest(self, cache):
        rt = Runtime(jobs=1, cache=cache)
        tasks = [SimTask("spmv", i) for i in ("M1", "M2")]
        runs = rt.run_cells(tasks)
        assert all(runs[t].speedup > 1.0 for t in tasks)
        manifest = rt.manifest
        assert manifest.total == 2
        assert manifest.cache_hits == 0
        assert manifest.simulated == 2
        assert not manifest.failures
        assert manifest.mode == "serial"

    def test_duplicate_tasks_collapse_to_one_cell(self, cache):
        rt = Runtime(jobs=1, cache=cache)
        runs = rt.run_cells([SimTask("spmv", "M1")] * 5)
        assert len(runs) == 1
        assert rt.manifest.total == 1

    def test_warm_cache_skips_simulation(self, cache):
        tasks = [SimTask("spmv", i) for i in ("M1", "M2", "M3")]
        cold = Runtime(jobs=1, cache=cache)
        cold.run_cells(tasks)
        warm = Runtime(jobs=1, cache=cache)
        runs = warm.run_cells(tasks)
        manifest = warm.manifest
        assert manifest.cache_hits == 3
        assert manifest.simulated == 0
        assert manifest.hit_rate == 1.0
        assert all(runs[t].speedup > 0 for t in tasks)

    def test_retry_then_failure_reported(self, tmp_path):
        calls = {"n": 0}

        def boom(task):
            calls["n"] += 1
            raise ValueError("injected")

        rt = Runtime(jobs=1, retries=2, backoff=0.0)
        import repro.runtime.executor as executor_mod
        original = executor_mod._evaluate_task
        executor_mod._evaluate_task = boom
        try:
            report = rt.run([SimTask("spmv", "M1")])
        finally:
            executor_mod._evaluate_task = original
        assert calls["n"] == 3              # 1 attempt + 2 retries
        [outcome] = report.outcomes
        assert not outcome.ok
        assert "injected" in outcome.error
        assert outcome.attempts == 3
        with pytest.raises(ExecutorError):
            rt.run_cells([SimTask("nope", "M1")])

    def test_unproducible_variant_is_a_failed_cell(self, cache):
        """A cell naming a variant its workload cannot produce fails
        instead of caching a record without that variant."""
        rt = Runtime(jobs=1, cache=cache, retries=0)
        task = SimTask("cpals", "T1", variants=("baseline", "imp"))
        [outcome] = rt.run([task]).outcomes
        assert not outcome.ok
        assert "cannot produce" in outcome.error
        assert cache.get(task) is None

    def test_repeated_cell_is_answered_from_memory(self, monkeypatch):
        """Without a cache directory, a cell an earlier batch of the
        same runtime ran is evaluated once, and the second batch files
        it as cached, counted like a disk hit."""
        import repro.runtime.executor as executor_mod

        calls = []
        evaluate = executor_mod._evaluate_task

        def counting(task, *args, **kwargs):
            calls.append(task.label)
            return evaluate(task, *args, **kwargs)

        monkeypatch.setattr(executor_mod, "_evaluate_task", counting)
        rt = Runtime(jobs=1)
        with obs.capture() as registry:
            first = rt.run([SimTask("spmv", "M1")]).manifest
            second = rt.run([SimTask("spmv", "M1")]).manifest
        assert calls == ["spmv/M1@small"]
        assert [e.cached for e in first.entries + second.entries] == [
            False, True]
        counters = registry.as_dict()["counters"]
        assert counters["runtime.executor.cells_simulated"] == 1
        assert counters["runtime.executor.cells_cached"] == 1

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ExecutorError):
            Runtime(jobs=0)
        with pytest.raises(ExecutorError):
            Runtime(retries=-1)


class TestRuntimeParallel:
    """The acceptance sweep: jobs=4 vs serial, then warm cache."""

    def test_fig10_style_sweep_parallel_matches_serial(self, tmp_path):
        tasks = [SimTask(w, i)
                 for w in ("spmv", "spkadd")
                 for i in ("M1", "M2", "M3", "M4", "M5", "M6")]

        parallel = Runtime(jobs=4,
                           cache=ResultCache(tmp_path / "par"))
        par_runs = parallel.run_cells(tasks)
        assert parallel.manifest.mode in ("process-pool",
                                               "fallback-serial")

        serial = Runtime(jobs=1)
        ser_runs = serial.run_cells(tasks)

        for task in tasks:
            assert par_runs[task].speedup == ser_runs[task].speedup
            assert (par_runs[task].baseline.cycles
                    == ser_runs[task].baseline.cycles)
            assert (par_runs[task].tmu.cycles
                    == ser_runs[task].tmu.cycles)

        # Second, warm-cache invocation: >= 95% hits, no simulation.
        warm = Runtime(jobs=4, cache=ResultCache(tmp_path / "par"))
        warm_runs = warm.run_cells(tasks)
        manifest = warm.manifest
        assert manifest.hit_rate >= 0.95
        assert manifest.simulated == 0
        for task in tasks:
            assert warm_runs[task].speedup == ser_runs[task].speedup

    def test_pool_results_are_cached_for_serial_readers(self, tmp_path):
        cache_dir = tmp_path / "shared"
        tasks = [SimTask("spmv", i) for i in ("M1", "M2")]
        Runtime(jobs=2, cache=ResultCache(cache_dir)).run_cells(tasks)
        reader = Runtime(jobs=1, cache=ResultCache(cache_dir))
        reader.run_cells(tasks)
        assert reader.manifest.hit_rate == 1.0

    def test_reference_selection_reaches_workers_outside_the_hash(
            self, monkeypatch):
        """``--reference`` under ``--jobs 4``: the cache-model selection
        is no part of any content hash, and it reaches pool workers as
        an executor argument.  The pool spawns its workers, so they do
        not inherit the parent's module globals the way forked ones
        would.  A reference walk skips the walk memos, so the workers'
        telemetry shows no walk-cache lookups under the reference model
        and some under the fast one."""
        import functools
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        import repro.runtime.executor as executor_mod
        from repro.sim.memsys import configure_reference

        monkeypatch.setattr(
            executor_mod, "ProcessPoolExecutor",
            functools.partial(ProcessPoolExecutor,
                              mp_context=multiprocessing.get_context(
                                  "spawn")))
        tasks = [SimTask("spmv", i) for i in ("M1", "M2")]
        hashes = {}
        lookups = {}
        for model in ("fast", "reference"):
            configure_reference(model == "reference")
            try:
                hashes[model] = [t.content_hash() for t in tasks]
                with obs.capture() as registry:
                    runs = Runtime(jobs=4).run_cells(tasks)
            finally:
                configure_reference(False)
            assert all(runs[t].baseline.cycles > 0 for t in tasks)
            counters = registry.as_dict()["counters"]
            lookups[model] = sum(
                counters.get(f"sim.memsys.walk_cache.{name}", 0)
                for name in ("mem_hits", "disk_hits", "misses"))
        assert hashes["fast"] == hashes["reference"]
        assert lookups["reference"] == 0
        assert lookups["fast"] > 0


class TestManifest:
    def test_roundtrip_and_summary(self, tmp_path, cache):
        rt = Runtime(jobs=1, cache=cache)
        rt.run_cells([SimTask("spmv", "M1")])
        manifest = rt.manifest
        path = manifest.write(tmp_path / "m" / "run.json")
        loaded = RunManifest.load_dict(json.loads(path.read_text()))
        assert loaded.total == manifest.total
        assert loaded.cache_hits == manifest.cache_hits
        assert [e.hash for e in loaded.entries] == [
            e.hash for e in manifest.entries]
        text = manifest.summary()
        assert "1 cells" in text and "0 failed" in text

    def test_entries_carry_provenance(self, cache):
        rt = Runtime(jobs=1, cache=cache)
        task = SimTask("spmv", "M1")
        rt.run_cells([task])
        [entry] = rt.manifest.entries
        assert entry.hash == task.content_hash()
        assert entry.workload == "spmv"
        assert entry.input_id == "M1"
        assert entry.wall_time > 0
        assert entry.attempts == 1
        assert entry.ok

    def test_runtime_keeps_one_manifest_across_batches(self, cache):
        rt = Runtime(jobs=1, cache=cache)
        assert rt.manifest is None
        first = rt.run([SimTask("spmv", "M1")]).manifest
        second = rt.run([SimTask("spmv", "M1"),
                         SimTask("spmv", "M2")]).manifest
        # each report keeps its batch's record ...
        assert (first.total, second.total) == (1, 2)
        assert second.cache_hits == 1
        # ... and the runtime's record is every batch, in order
        run = rt.manifest
        assert run is not first
        assert [e.hash for e in run.entries] == [
            e.hash for e in first.entries + second.entries]
        assert run.created_at == first.created_at
        assert run.wall_time == first.wall_time + second.wall_time
        assert run.mode == second.mode
        assert (run.total, run.cache_hits, run.simulated) == (3, 1, 2)
        assert first.total == 1      # extending never touches a batch


class TestGlobalConfiguration:
    def test_configure_and_reset(self, tmp_path):
        try:
            rt = runtime.configure(jobs=2, cache_dir=tmp_path / "c")
            assert runtime.active_runtime() is rt
            assert isinstance(rt.cache, ResultCache)
        finally:
            runtime.reset()
        assert runtime.active_runtime() is not rt
        assert isinstance(runtime.active_runtime().cache, MemoryCache)
        runtime.reset()

    def test_no_cache_run_answers_repeated_cells_from_memory(
            self, tmp_path):
        """``repro all --no-cache``: the figures share cells, and each
        repeat is filed as cached, so the simulated count is the number
        of distinct cells."""
        from repro.cli import main

        path = tmp_path / "m.json"
        try:
            assert main(["all", "--scale", "small", "--workloads",
                         "spmv", "--no-cache", "--walk-cache", "off",
                         "--manifest", str(path)]) == 0
        finally:
            runtime.reset()
        manifest = RunManifest.load_dict(json.loads(path.read_text()))
        assert manifest.total == 184
        assert manifest.simulated == len(
            {e.hash for e in manifest.entries}) == 160
        assert manifest.cache_hits == 24

    def test_drivers_route_through_active_runtime(self, tmp_path):
        from repro.eval import experiments as ex

        rt = runtime.configure(jobs=1, cache_dir=tmp_path / "c",
                               walk_cache="off")
        try:
            data = ex.fig10_speedups("small", workloads=("spmv",))
            assert rt.manifest is not None
            assert rt.manifest.total == 6
            assert rt.manifest.simulated == 6
            again = ex.fig10_speedups("small", workloads=("spmv",))
            # one run-level record: the second batch extends it
            assert rt.manifest.total == 12
            assert rt.manifest.cache_hits == 6
            assert rt.manifest.simulated == 6
            assert data == again
        finally:
            runtime.reset()
