"""Scheduler behaviour: execution, dedup, supervision, resume.

The expensive paths (real simulations) use the smallest sweep in the
suite — ``spmv`` on ``M1`` (two variants).  The failure-injection
paths swap in fake runtimes via ``runtime_factory``, which is exactly
the seam the server uses, so the supervision logic under test is the
production code path.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro import obs
from repro.runtime import ResultCache, RunManifest, RunReport, TaskOutcome
from repro.serve import (
    Job,
    JobQueue,
    JobState,
    JobStore,
    QuotaError,
    Scheduler,
    Submission,
)


def submission(workloads=("spmv",), inputs=("M1", "M2"), **kw):
    return Submission.from_dict({
        "sweep": {"workloads": list(workloads), "inputs": list(inputs)},
        **kw,
    })


def wait_terminal(store: JobStore, job_id: str, timeout: float = 60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = store.get(job_id)
        if job is not None and job.state.terminal:
            return job
        time.sleep(0.02)
    raise AssertionError(f"job {job_id[:12]} never finished: "
                         f"{store.get(job_id)}")


def fake_report(tasks) -> RunReport:
    outcomes = [
        TaskOutcome(task=t, record={"fake": True}, cached=False,
                    wall_time=0.0, attempts=1)
        for t in tasks
    ]
    return RunReport(outcomes=outcomes,
                     manifest=RunManifest(jobs=1, mode="serial"))


class FakeRuntime:
    def run(self, tasks):
        return fake_report(tasks)


class BlockingRuntime:
    """Signals ``started`` at the first batch, then holds every batch
    until ``release`` is set."""

    def __init__(self, started: threading.Event,
                 release: threading.Event) -> None:
        self.started = started
        self.release = release

    def run(self, tasks):
        self.started.set()
        assert self.release.wait(30), "test never released the runtime"
        return fake_report(tasks)


@pytest.fixture
def parts(tmp_path):
    store = JobStore(tmp_path / "jobs")
    queue = JobQueue(quota=8)
    cache = ResultCache(tmp_path / "cache")
    return store, queue, cache


def run_scheduler(scheduler):
    """Context manager that always stops the worker threads."""
    class _Ctx:
        def __enter__(self):
            scheduler.start()
            return scheduler

        def __exit__(self, *exc):
            scheduler.stop()
    return _Ctx()


class TestExecution:
    def test_submit_runs_to_done(self, parts):
        store, queue, cache = parts
        sched = Scheduler(store, queue, cache=cache)
        with run_scheduler(sched):
            job, created = sched.submit(submission())
            assert created and job.state is JobState.PENDING
            job = wait_terminal(store, job.id)
        assert job.state is JobState.DONE
        assert job.completed == job.total == 2
        assert job.simulated == 2 and job.cached == 0
        records = cache.get_many(job.cells)
        assert all(records[h] is not None for h in job.cells)
        events = {e["event"] for e in store.events(job.id)}
        assert {"submitted", "started", "progress", "done"} <= events

    def test_resubmit_of_done_job_is_free(self, parts):
        store, queue, cache = parts
        sched = Scheduler(store, queue, cache=cache)
        with run_scheduler(sched):
            job, created = sched.submit(submission())
            job = wait_terminal(store, job.id)
            again, created = sched.submit(submission(client="other"))
        assert created is False
        assert again.id == job.id and again.state is JobState.DONE
        # nothing was queued for it, so no quota was consumed
        assert queue._active["other"] == 0

    def test_warm_cache_serves_restarted_service(self, parts, tmp_path):
        # simulate a wiped job journal but a surviving result cache:
        # the same sweep re-runs as 100% cache hits
        store, queue, cache = parts
        sched = Scheduler(store, queue, cache=cache)
        with run_scheduler(sched):
            first, _ = sched.submit(submission())
            wait_terminal(store, first.id)
        store2 = JobStore(tmp_path / "jobs2")
        sched2 = Scheduler(store2, JobQueue(), cache=cache)
        with run_scheduler(sched2):
            job, created = sched2.submit(submission())
            assert created  # new journal has never seen the job...
            job = wait_terminal(store2, job.id)
        assert job.id == first.id  # ...but the id is content-addressed
        assert job.cached == job.total and job.simulated == 0


class TestSupervision:
    def test_worker_death_requeues_then_succeeds(self, parts):
        store, queue, cache = parts
        calls = {"n": 0}

        def flaky_factory(progress):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("injected worker crash")
            return FakeRuntime()

        sched = Scheduler(store, queue, cache=cache,
                          runtime_factory=flaky_factory, max_requeues=1)
        with run_scheduler(sched):
            job, _ = sched.submit(submission())
            job = wait_terminal(store, job.id)
        assert job.state is JobState.DONE
        assert job.requeues == 1
        events = [e["event"] for e in store.events(job.id)]
        assert "requeued" in events

    def test_requeue_budget_exhausts_to_failed(self, parts):
        store, queue, cache = parts

        def dead_factory(progress):
            raise RuntimeError("always crashes")

        sched = Scheduler(store, queue, cache=cache,
                          runtime_factory=dead_factory, max_requeues=1)
        with run_scheduler(sched):
            job, _ = sched.submit(submission())
            job = wait_terminal(store, job.id)
        assert job.state is JobState.FAILED
        assert "worker died" in job.error

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_supervisor_respawns_dead_worker_thread(self, parts):
        # SystemExit is not an Exception: the worker loop requeues the
        # job, then re-raises and the thread dies.  The job can only
        # finish if the supervisor replaces the thread.
        store, queue, cache = parts
        calls = {"n": 0}

        def exit_factory(progress):
            calls["n"] += 1
            if calls["n"] == 1:
                raise SystemExit("thread killed")
            return FakeRuntime()

        sched = Scheduler(store, queue, cache=cache,
                          runtime_factory=exit_factory, max_requeues=1)
        with run_scheduler(sched):
            job, _ = sched.submit(submission())
            job = wait_terminal(store, job.id)
        assert job.state is JobState.DONE
        assert calls["n"] == 2

    def test_quota_rejection_leaves_no_trace(self, parts):
        store, _, cache = parts
        queue = JobQueue(quota=1)
        sched = Scheduler(store, queue, cache=cache)  # not started
        first, _ = sched.submit(submission())
        blocked = submission(workloads=("spkadd",), client="anon")
        with pytest.raises(QuotaError):
            sched.submit(blocked)
        from repro.serve import job_id_for
        assert store.get(job_id_for(blocked.tasks)) is None
        assert store.get(first.id) is not None  # accepted job untouched


class TestCancellation:
    def test_cancel_pending_job(self, parts):
        store, queue, cache = parts
        sched = Scheduler(store, queue, cache=cache)  # workers not started
        job, _ = sched.submit(submission())
        cancelled = sched.cancel(job.id)
        assert cancelled.state is JobState.CANCELLED
        assert queue._active[job.client] == 0  # quota slot released
        # a resubmit re-opens it
        again, created = sched.submit(submission())
        assert again.id == job.id and created is False
        assert again.state is JobState.PENDING

    def test_cancel_while_running_stops_at_batch_boundary(self, parts):
        store, queue, cache = parts
        started, release = threading.Event(), threading.Event()

        sched = Scheduler(
            store, queue, cache=cache, batch_size=1,
            runtime_factory=lambda p: BlockingRuntime(started, release))
        with run_scheduler(sched):
            job, _ = sched.submit(submission())  # 2 cells, 2 batches
            assert started.wait(10)              # batch 1 in flight
            sched.cancel(job.id)
            release.set()
            job = wait_terminal(store, job.id)
        assert job.state is JobState.CANCELLED
        assert job.completed == 1 and job.total == 2
        events = store.events(job.id)
        assert events[-1]["event"] == "cancelled"
        assert "while running" in events[-1]["message"]


class TestRestartResume:
    def test_recover_finishes_interrupted_job_from_cache(
            self, parts, tmp_path):
        """A server killed mid-job must resume without re-simulating
        the cells it already completed (the acceptance criterion)."""
        store, queue, cache = parts
        # half the sweep (spmv x {M1, M2}, 2 cells) is already in the
        # cache, as it would be after the journal flushed a batch
        warm = Scheduler(store, queue, cache=cache)
        with run_scheduler(warm):
            done, _ = warm.submit(submission(inputs=("M1", "M2")))
            wait_terminal(store, done.id)

        # the "crashed server": a journal holding the full 4-cell job
        # (spmv x {M1..M4}) stuck in RUNNING
        full = submission(inputs=("M1", "M2", "M3", "M4"))
        from repro.serve import job_id_for
        job = Job(
            id=job_id_for(full.tasks),
            sweep=full.sweep.as_dict(),
            cells=[t.content_hash() for t in full.tasks],
        )
        job.advance(JobState.RUNNING)
        job.completed = job.simulated = 2
        store2 = JobStore(tmp_path / "jobs-after-crash")
        store2.put(job)

        # restart: recover() requeues it, the run serves the finished
        # half from cache and simulates only the other half
        sched = Scheduler(store2, JobQueue(), cache=cache)
        assert sched.recover() == 1
        with run_scheduler(sched):
            revived = wait_terminal(store2, job.id)
        assert revived.state is JobState.DONE
        assert revived.requeues == 1
        assert revived.total == 4
        assert revived.cached == 2 and revived.simulated == 2


class TestTelemetry:
    def test_service_gauges_live_in_the_registry(self, parts):
        store, queue, cache = parts
        sched = Scheduler(store, queue, cache=cache,
                          runtime_factory=lambda p: FakeRuntime())
        with obs.capture():
            with run_scheduler(sched):
                job, _ = sched.submit(submission())
                job = wait_terminal(store, job.id)
            snap = obs.snapshot()
        assert snap["gauges"]["serve.queue_depth"]["value"] == 0
        assert snap["gauges"]["serve.inflight_cells"]["value"] == 0
        assert snap["counters"]["serve.client.anon.cells"] == job.total
        assert "serve.client.anon.cells_per_sec" in snap["gauges"]
        # the registry is process-wide and cumulative: no job record
        # carries a copy of it
        assert "telemetry" not in job.as_dict()
        assert "telemetry" not in json.loads(
            store.path_for(job.id).read_text(encoding="utf-8"))
