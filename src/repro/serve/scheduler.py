"""The scheduler: a supervised worker pool executing queued jobs.

Each worker thread pops a job, re-expands its journaled sweep into
cells and runs them in small batches through a
:class:`~repro.runtime.executor.Runtime` sharing the service-wide
result cache (on disk, or in memory without a cache dir) — so the per-cell
timeout/retry/serial-fallback policy, the process-pool fan-out and the
content-addressed idempotency all come from the runtime layer for
free.  Batching is what makes jobs *interruptible*: cancellation is
checked between batches, progress events flow per cell, and a job
interrupted anywhere resumes without re-simulating completed cells
(they are cache hits on the next attempt).

Supervision is two layers deep.  A worker that hits an unexpected
exception requeues its job (bounded by ``max_requeues``) instead of
losing it; a worker *thread* that dies outright is respawned by the
supervisor thread, and a whole-process death is covered by the
journal + :meth:`JobStore.recover` at the next startup.

When :mod:`repro.obs` telemetry is enabled the scheduler maintains the
service gauges — ``serve.queue_depth``, ``serve.inflight_cells``, and
per-client ``serve.client.<id>.{cells,cells_per_sec}`` — which the
service exposes live on ``/metrics`` and ``/stats``.  With an
experiment database configured, each finished job is filed there once,
as its ``serve-job`` row.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Callable

from .. import obs
from ..errors import ServeError
from ..obs.logging import correlation, get_logger, log_event
from ..runtime.cache import MemoryCache, ResultCache
from ..runtime.executor import ProgressEvent, Runtime
from ..runtime.manifest import manifest_rev
from ..runtime.task import task_from_spec
from .jobs import Job, JobState, JobStore
from .protocol import Submission, SweepSpec, job_id_for
from .queue import JobQueue, QuotaError

_log = get_logger("serve.scheduler")

#: cells per executor batch: small enough that cancel latency and
#: journal granularity stay at "a few cells", large enough to amortize
#: pool fan-out.
DEFAULT_BATCH_SIZE = 8


class Scheduler:
    """Supervised execution of queued jobs over a shared runtime."""

    def __init__(self, store: JobStore, queue: JobQueue, *,
                 cache: ResultCache | MemoryCache | None = None,
                 jobs: int = 1, workers: int = 1,
                 timeout: float | None = None, retries: int = 1,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 max_requeues: int = 1,
                 runtime_factory: Callable[..., Runtime] | None = None,
                 db_path: str | None = None,
                 ) -> None:
        if workers < 1:
            raise ServeError(f"workers must be >= 1, got {workers}")
        self.store = store
        self.queue = queue
        self.workers = workers
        self.cache = cache
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.batch_size = max(1, batch_size)
        self.max_requeues = max_requeues
        self.db_path = db_path
        self._runtime_factory = runtime_factory or self._make_runtime
        self._stop = threading.Event()
        self._lock = threading.RLock()
        self._cancel_requested: set[str] = set()
        self._inflight: dict[str, int] = {}   # job id -> remaining cells
        self._threads: list[threading.Thread] = []
        self._supervisor: threading.Thread | None = None
        self._client_done: dict[str, tuple[int, float]] = {}

    def _make_runtime(self, progress) -> Runtime:
        return Runtime(jobs=self.jobs, cache=self.cache,
                       timeout=self.timeout, retries=self.retries,
                       progress=progress)

    # ------------------------------------------------------------ control

    def start(self) -> None:
        self._stop.clear()
        self._threads = [self._spawn(i) for i in range(self.workers)]
        self._supervisor = threading.Thread(
            target=self._supervise, name="serve-supervisor", daemon=True)
        self._supervisor.start()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout)
        if self._supervisor is not None:
            self._supervisor.join(timeout)
        self._threads = []

    @property
    def alive(self) -> bool:
        """Whether the supervision loop is running (readiness probe):
        started, not stopped, and the supervisor thread still lives."""
        return (not self._stop.is_set()
                and self._supervisor is not None
                and self._supervisor.is_alive())

    def _spawn(self, slot: int) -> threading.Thread:
        thread = threading.Thread(target=self._worker_loop,
                                  name=f"serve-worker-{slot}",
                                  daemon=True)
        thread.start()
        return thread

    def _supervise(self) -> None:
        """Respawn worker threads that died with an unhandled error."""
        while not self._stop.wait(0.2):
            for i, thread in enumerate(self._threads):
                if not thread.is_alive() and not self._stop.is_set():
                    self._threads[i] = self._spawn(i)

    # ------------------------------------------------------------- submit

    def submit(self, submission: Submission) -> tuple[Job, bool]:
        """Accept a sweep; returns ``(job, created)``.

        Idempotent by construction: the job id is the sha256 of the
        expanded cell hashes, so an identical sweep maps onto the
        existing PENDING/RUNNING/DONE job (``created=False``) and
        costs nothing.  FAILED and CANCELLED jobs re-open and requeue.
        """
        tasks = list(submission.tasks) or submission.sweep.expand()
        job_id = job_id_for(tasks)
        with self._lock:
            job = self.store.get(job_id)
            if job is not None and (not job.state.terminal
                                    or job.state is JobState.DONE):
                return job, False
            previous = job.as_dict() if job is not None else None
            if job is not None:            # failed / cancelled: re-open
                job.reopen()
                job.client = submission.client
                job.priority = submission.priority
                created = False
            else:
                job = Job(
                    id=job_id,
                    client=submission.client,
                    priority=submission.priority,
                    sweep=submission.sweep.as_dict(),
                    cells=[t.content_hash() for t in tasks],
                )
                created = True
            # persist before enqueueing — a worker may pop the id the
            # instant it lands on the queue and must find the record.
            # A quota rejection then rolls the journal back, so a
            # refused submission leaves no trace.
            self._cancel_requested.discard(job_id)
            self.store.put(job)
            try:
                self.queue.push(job_id, client=job.client,
                                priority=job.priority)
            except QuotaError:
                if previous is not None:
                    self.store.put(Job.from_dict(previous))
                else:
                    self.store.delete(job_id)
                raise
            self.store.append_event(job_id, {
                "event": "submitted" if created else "resubmitted",
                "client": job.client, "priority": job.priority,
                "cells": job.total,
            })
            log_event(_log, logging.INFO,
                      "job submitted" if created else "job resubmitted",
                      job_id=job_id, client=job.client,
                      cells=job.total, priority=job.priority)
            self._update_gauges()
            return job, created

    # ------------------------------------------------------------- cancel

    def cancel(self, job_id: str) -> Job:
        """Request cancellation; effective immediately for queued jobs,
        at the next batch boundary for running ones."""
        with self._lock:
            job = self.store.get(job_id)
            if job is None:
                raise ServeError(f"unknown job {job_id[:12]}")
            if job.state.terminal:
                return job
            if job.state is JobState.PENDING and \
                    self.queue.cancel(job_id):
                self.queue.release(job.client)
                job.advance(JobState.CANCELLED)
                self.store.put(job)
                self.store.append_event(job_id, {
                    "event": "cancelled", "message": "while queued"})
            else:
                self._cancel_requested.add(job_id)
            log_event(_log, logging.INFO, "job cancellation requested",
                      job_id=job_id, state=job.state.value)
            self._update_gauges()
            return job

    # ------------------------------------------------------ worker loop

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            job_id = self.queue.pop(timeout=0.2)
            if job_id is None:
                continue
            job = self.store.get(job_id)
            if job is None or job.state is not JobState.PENDING:
                # cancelled or corrupted between push and pop
                if job is not None:
                    self.queue.release(job.client)
                continue
            try:
                self._run_job(job)
            except BaseException as exc:  # noqa: BLE001 - supervised
                self._handle_worker_death(job, exc)
                if not isinstance(exc, Exception):
                    raise  # kills the thread; the supervisor respawns
            finally:
                self.queue.release(job.client)
                self._update_gauges()

    def _handle_worker_death(self, job: Job, exc: BaseException) -> None:
        """A worker blew up outside the runtime's own failure handling:
        requeue the job (bounded), else fail it."""
        with self._lock:
            job = self.store.get(job.id) or job
            if job.state.terminal:
                return
            reason = f"{type(exc).__name__}: {exc}"
            log_event(_log, logging.WARNING, "worker died running job",
                      job_id=job.id, error=reason,
                      requeues=job.requeues)
            if job.requeues < self.max_requeues:
                if job.state is JobState.RUNNING:
                    job.reopen()
                job.requeues += 1
                self.store.put(job)
                self.store.append_event(job.id, {
                    "event": "requeued",
                    "message": f"worker died ({reason}); "
                               f"requeue {job.requeues}/"
                               f"{self.max_requeues}",
                })
                self.queue.push(job.id, client=job.client,
                                priority=job.priority,
                                enforce_quota=False)
            else:
                if job.state is JobState.PENDING:
                    job.advance(JobState.RUNNING)
                job.error = f"worker died: {reason}"
                job.advance(JobState.FAILED)
                self.store.put(job)
                self.store.append_event(job.id, {
                    "event": "failed", "message": job.error})

    # -------------------------------------------------------- job driver

    def _run_job(self, job: Job) -> None:
        with correlation(job_id=job.id, client=job.client):
            self._run_job_correlated(job)

    def _run_job_correlated(self, job: Job) -> None:
        job.advance(JobState.RUNNING)
        self.store.put(job)
        self.store.append_event(job.id, {
            "event": "started", "cells": job.total,
            "requeues": job.requeues,
        })
        log_event(_log, logging.INFO, "job started",
                  cells=job.total, requeues=job.requeues)
        tasks = [task_from_spec(spec) for spec in
                 self._cell_specs(job)]
        self._inflight[job.id] = len(tasks)
        runtime = self._runtime_factory(
            lambda ev: self._on_progress(job, ev))
        failures: list[str] = []
        for lo in range(0, len(tasks), self.batch_size):
            if job.id in self._cancel_requested:
                self._finish_cancelled(job)
                return
            batch = tasks[lo:lo + self.batch_size]
            batch_start = time.perf_counter()
            report = runtime.run(batch)
            batch_elapsed = time.perf_counter() - batch_start
            with self._lock:
                for outcome in report.outcomes:
                    if outcome.ok:
                        job.completed += 1
                        if outcome.cached:
                            job.cached += 1
                        else:
                            job.simulated += 1
                    else:
                        job.failed += 1
                        failures.append(
                            f"{outcome.task.label}: {outcome.error}")
                self._inflight[job.id] = len(tasks) - job.completed \
                    - job.failed
                self.store.put(job)
                self._note_client_cells(job.client, len(batch),
                                        batch_elapsed)
        self._finish(job, failures)

    def _cell_specs(self, job: Job) -> list[dict]:
        """The cells to execute, rebuilt from the journaled sweep."""
        return [t.spec()
                for t in SweepSpec.from_dict(job.sweep).expand()]

    def _finish(self, job: Job, failures: list[str]) -> None:
        with self._lock:
            self._inflight.pop(job.id, None)
            self._cancel_requested.discard(job.id)
            if failures:
                job.error = "; ".join(failures[:5]) + (
                    f" (+{len(failures) - 5} more)"
                    if len(failures) > 5 else "")
                job.advance(JobState.FAILED)
            else:
                job.advance(JobState.DONE)
            self.store.put(job)
            self.store.append_event(job.id, {
                "event": job.state.value,
                "completed": job.completed, "cached": job.cached,
                "simulated": job.simulated, "failed": job.failed,
            })
            log_event(_log,
                      logging.INFO if job.state is JobState.DONE
                      else logging.WARNING,
                      f"job {job.state.value}",
                      completed=job.completed, cached=job.cached,
                      simulated=job.simulated, failed=job.failed,
                      error=job.error)
        self._ingest_finished(job)

    def _finish_cancelled(self, job: Job) -> None:
        with self._lock:
            self._inflight.pop(job.id, None)
            self._cancel_requested.discard(job.id)
            job.advance(JobState.CANCELLED)
            self.store.put(job)
            self.store.append_event(job.id, {
                "event": "cancelled",
                "message": f"while running; {job.completed}/"
                           f"{job.total} cells done",
            })

    def _ingest_finished(self, job: Job) -> None:
        """File a finished job, once, as its ``serve-job`` run in the
        experiment database, when one is configured (``--store``).
        Ingest failures never raise — the analytics layer must not
        take a job down with it — but they are journaled, logged at
        WARNING, and counted (``repro_store_ingest_failures`` on
        ``/metrics``) so they can't silently accumulate."""
        if self.db_path is None:
            return
        from ..errors import StoreError
        from ..store import ExperimentStore, ingest_job

        try:
            with ExperimentStore(self.db_path) as store:
                ingest_job(store, job.as_dict(),
                           events=self.store.events(job.id),
                           source=f"serve:{job.id[:12]}",
                           rev=manifest_rev())
        except StoreError as exc:
            self.store.append_event(job.id, {
                "event": "store-error",
                "message": f"store ingest failed: {exc}"})
            log_event(_log, logging.WARNING, "store ingest failed",
                      job_id=job.id, store=self.db_path,
                      error=str(exc))
            if obs.enabled():
                obs.active().counter("store.ingest_failures").add()

    # ---------------------------------------------------------- telemetry

    def _on_progress(self, job: Job, event: ProgressEvent) -> None:
        self.store.append_event(job.id, {"event": "progress",
                                         **event.as_dict()})

    def _note_client_cells(self, client: str, cells: int,
                           elapsed: float) -> None:
        done, seconds = self._client_done.get(client, (0, 0.0))
        done, seconds = done + cells, seconds + elapsed
        self._client_done[client] = (done, seconds)
        if obs.enabled():
            view = obs.active().prefixed(f"serve.client.{client}")
            view.counter("cells").add(cells)
            if seconds > 0:
                view.gauge("cells_per_sec").set(done / seconds)
        self._update_gauges()

    def _update_gauges(self) -> None:
        if not obs.enabled():
            return
        view = obs.active().prefixed("serve")
        view.gauge("queue_depth").set(float(self.queue.depth))
        view.gauge("inflight_cells").set(
            float(sum(self._inflight.values())))

    # ------------------------------------------------------------ recover

    def recover(self) -> int:
        """Requeue journaled work after a restart; returns the count.
        Quota enforcement is bypassed — this is work the server already
        accepted."""
        count = 0
        for job in self.store.recover():
            self.queue.push(job.id, client=job.client,
                            priority=job.priority, enforce_quota=False)
            count += 1
        return count
