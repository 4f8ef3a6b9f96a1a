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
    NullCache,
    ResultCache,
    RunManifest,
    Runtime,
    SimTask,
    machine_from_dict,
    machine_to_dict,
    run_from_record,
    task_from_spec,
)


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

    def test_invalidate_one_and_all(self, cache):
        tasks = [SimTask("spmv", i) for i in ("M1", "M2", "M3")]
        for t in tasks:
            cache.put(t, {"salt": CODE_SALT, "fake": True})
        assert cache.invalidate(tasks[0]) == 1
        assert len(cache) == 2
        assert cache.invalidate() == 2
        assert len(cache) == 0
        assert cache.invalidate(tasks[0]) == 0

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

    def test_null_cache(self):
        null = NullCache()
        task = SimTask("spmv", "M1")
        null.put(task, {"x": 1})
        assert null.get(task) is None
        assert len(null) == 0
        assert null.invalidate() == 0 and null.gc() == 0


class TestRuntimeSerial:
    def test_run_cells_and_manifest(self, cache):
        rt = Runtime(jobs=1, cache=cache)
        tasks = [SimTask("spmv", i) for i in ("M1", "M2")]
        runs = rt.run_cells(tasks)
        assert all(runs[t].speedup > 1.0 for t in tasks)
        manifest = rt.last_manifest
        assert manifest.total == 2
        assert manifest.cache_hits == 0
        assert manifest.simulated == 2
        assert not manifest.failures
        assert manifest.mode == "serial"

    def test_duplicate_tasks_collapse_to_one_cell(self, cache):
        rt = Runtime(jobs=1, cache=cache)
        runs = rt.run_cells([SimTask("spmv", "M1")] * 5)
        assert len(runs) == 1
        assert rt.last_manifest.total == 1

    def test_warm_cache_skips_simulation(self, cache):
        tasks = [SimTask("spmv", i) for i in ("M1", "M2", "M3")]
        cold = Runtime(jobs=1, cache=cache)
        cold.run_cells(tasks)
        warm = Runtime(jobs=1, cache=cache)
        runs = warm.run_cells(tasks)
        manifest = warm.last_manifest
        assert manifest.cache_hits == 3
        assert manifest.simulated == 0
        assert manifest.hit_rate == 1.0
        assert all(runs[t].speedup > 0 for t in tasks)

    def test_retry_then_failure_reported(self, tmp_path):
        calls = {"n": 0}

        def boom(task):
            calls["n"] += 1
            raise ValueError("injected")

        rt = Runtime(jobs=1, cache=NullCache(), retries=2,
                     backoff=0.0)
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
        assert parallel.last_manifest.mode in ("process-pool",
                                               "fallback-serial")

        serial = Runtime(jobs=1, cache=NullCache())
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
        manifest = warm.last_manifest
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
        assert reader.last_manifest.hit_rate == 1.0

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
        manifest = rt.last_manifest
        path = manifest.write(tmp_path / "m" / "run.json")
        loaded = RunManifest.load(path)
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
        [entry] = rt.last_manifest.entries
        assert entry.hash == task.content_hash()
        assert entry.workload == "spmv"
        assert entry.input_id == "M1"
        assert entry.wall_time > 0
        assert entry.attempts == 1
        assert entry.ok


class TestGlobalConfiguration:
    def test_configure_and_reset(self, tmp_path):
        try:
            rt = runtime.configure(jobs=2, cache_dir=tmp_path / "c")
            assert runtime.active_runtime() is rt
            assert isinstance(rt.cache, ResultCache)
        finally:
            runtime.reset()
        assert runtime.active_runtime() is not rt
        assert isinstance(runtime.active_runtime().cache, NullCache)
        runtime.reset()

    def test_using_scopes_the_swap(self):
        outer = runtime.active_runtime()
        inner = Runtime(jobs=1)
        with runtime.using(inner) as rt:
            assert rt is inner
            assert runtime.active_runtime() is inner
        assert runtime.active_runtime() is outer
        runtime.reset()

    def test_drivers_route_through_active_runtime(self, tmp_path):
        from repro.eval import experiments as ex

        with runtime.using(Runtime(
                jobs=1, cache=ResultCache(tmp_path / "c"))) as rt:
            data = ex.fig10_speedups("small", workloads=("spmv",))
            assert rt.last_manifest is not None
            assert rt.last_manifest.total == 6
            cold = rt.last_manifest.simulated
            assert cold == 6
            again = ex.fig10_speedups("small", workloads=("spmv",))
            assert rt.last_manifest.hit_rate == 1.0
            assert data == again
