"""The experiment executor: cache-aware parallel fan-out over SimTasks.

The :class:`Runtime` takes a batch of :class:`~repro.runtime.task.SimTask`
cells, serves what it can from the result cache, fans the misses out
over a ``ProcessPoolExecutor`` (``jobs > 1``) or runs them in-process
(``jobs <= 1`` — which preserves the library's in-process memoization),
and returns a :class:`RunReport` with per-cell outcomes plus a
provenance :class:`~repro.runtime.manifest.RunManifest`.

Failure policy: each failed cell is retried up to ``retries`` times
with exponential backoff (retries always run in-process, where the
traceback is most useful).  Cells that exceed ``timeout`` seconds in
pool mode are cancelled and *not* retried — a timeout signals a cell
too big for the budget, not a flake.  If the process pool cannot be
created or breaks mid-run (sandboxes without ``/dev/shm``, recursive
workers), the runtime degrades to serial execution instead of failing
the sweep.
"""

from __future__ import annotations

import logging
import os
import time
import uuid
from contextlib import ExitStack
from concurrent.futures import ProcessPoolExecutor, TimeoutError as \
    FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

__all__ = ["ProgressEvent", "TaskOutcome", "RunReport", "Runtime"]

from .. import obs
from ..errors import ExecutorError, StoreError
from ..obs.logging import (
    correlation,
    get_logger,
    log_event,
    worker_context,
)
from ..sim.memsys import configure_reference, uses_reference
from .cache import NullCache, ResultCache
from .manifest import ManifestEntry, RunManifest, manifest_rev
from .task import SimTask, run_from_record

_log = get_logger("runtime.executor")


def _install_walk_store(walk_dir: "str | None") -> None:
    """Attach the on-disk walk-cache tier at ``walk_dir`` (idempotent;
    ``None`` leaves whatever is installed alone).  Pool workers call
    this on every task: the first call in a fresh worker installs the
    tier, later calls are two attribute reads."""
    if walk_dir is None:
        return
    from ..sim.memsys import configure_walk_store, walk_cache

    store = walk_cache().store
    if store is None or str(getattr(store, "root", "")) != walk_dir:
        from .cache import WalkStore

        configure_walk_store(WalkStore(walk_dir))


def _evaluate_task(task: SimTask, capture_telemetry: bool = False,
                   capture_trace: bool = False,
                   log_context: dict | None = None,
                   walk_dir: "str | None" = None,
                   reference: bool | None = None) -> dict:
    """Module-level worker entry point (must be picklable).

    ``capture_telemetry`` / ``capture_trace`` are set on process-pool
    submissions when the parent has :mod:`repro.obs` telemetry/tracing
    enabled: the worker records into a fresh registry (and a fresh
    tracer), shipping the bodies back on the record under transient
    ``"telemetry"`` / ``"trace"`` keys the executor strips and merges,
    so per-layer simulator metrics and the event timeline survive the
    process boundary.  In-process evaluation records into the parent
    registry/tracer directly.

    ``log_context`` is the parent's correlation context, shipped
    explicitly because contextvars do not cross the process boundary;
    the worker rebinds it (plus its own pid and the cell's hash) so
    its structured log records carry the same ``run_key``/``job_id``
    as the parent's.

    ``walk_dir`` ships the on-disk walk-cache location into pool
    workers (the parent installs its own tier via
    ``runtime.configure``): hierarchy walks memoized by any worker,
    the parent, a server job or a previous session are then shared.
    ``reference`` ships the parent's cache-model selection the same
    way (``None`` leaves the installed one alone).  Neither is part of
    the cell's content hash: both change how a result is computed,
    never the result.
    """
    _install_walk_store(walk_dir)
    if reference is not None:
        configure_reference(reference)
    with ExitStack() as stack:
        if log_context is not None:
            stack.enter_context(correlation(
                **log_context, worker_pid=os.getpid(),
                task_hash=task.content_hash()))
        registry = stack.enter_context(obs.capture()) if (
            capture_telemetry) else None
        tracer = stack.enter_context(obs.trace_capture()) if (
            capture_trace) else None
        started = time.perf_counter()
        record = task.evaluate()
        log_event(_log, logging.DEBUG, "cell evaluated",
                  label=getattr(task, "label", None),
                  elapsed=round(time.perf_counter() - started, 6))
    if registry is not None:
        record["telemetry"] = registry.as_dict()
    if tracer is not None:
        record["trace"] = tracer.as_dict()
    return record


@dataclass(frozen=True)
class ProgressEvent:
    """One structured progress notification from the executor.

    The CLI renders :attr:`message`; the simulation service journals
    :meth:`as_dict` on the job record — both consume the same stream.

    ``kind`` is one of ``"batch"`` (a batch was accepted: ``done`` of
    ``total`` cells came from cache), ``"cell"`` (one cell finished,
    ``state`` is ``"simulated"`` or ``"failed"``), ``"pool"`` (an
    executor mode change: pool unavailable / broke, serial fallback),
    ``"store"`` (an experiment-store auto-ingest warning) or
    ``"summary"`` (the batch's manifest summary).
    """

    kind: str
    message: str
    task_hash: str | None = None
    label: str | None = None
    state: str | None = None
    attempt: int = 0
    elapsed: float = 0.0
    done: int = 0
    total: int = 0

    def __str__(self) -> str:
        return self.message

    def as_dict(self) -> dict:
        """The event as a plain JSON-able dict (None fields dropped)."""
        data = {
            "kind": self.kind,
            "message": self.message,
            "attempt": self.attempt,
            "elapsed": round(self.elapsed, 6),
            "done": self.done,
            "total": self.total,
        }
        for key in ("task_hash", "label", "state"):
            value = getattr(self, key)
            if value is not None:
                data[key] = value
        return data


@dataclass
class TaskOutcome:
    """What happened to one unique cell of a run."""

    task: SimTask
    record: dict | None
    cached: bool
    wall_time: float
    attempts: int
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.record is not None


@dataclass
class RunReport:
    """Everything a driver needs back from one executor invocation."""

    outcomes: list[TaskOutcome]
    manifest: RunManifest

    @property
    def failures(self) -> list[TaskOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def records(self) -> dict[SimTask, dict]:
        return {o.task: o.record for o in self.outcomes if o.ok}

    def runs(self) -> dict[SimTask, object]:
        """Result records rebuilt into driver-facing ``WorkloadRun``s."""
        return {o.task: run_from_record(o.record)
                for o in self.outcomes if o.ok}


class Runtime:
    """Cache-aware executor for batches of simulation cells."""

    def __init__(self, *, jobs: int = 1,
                 cache: ResultCache | NullCache | None = None,
                 timeout: float | None = None, retries: int = 1,
                 backoff: float = 0.25,
                 progress: Callable[[ProgressEvent], None] | None = None,
                 store: "str | None" = None,
                 walk_dir: "str | None" = None,
                 ) -> None:
        if jobs < 1:
            raise ExecutorError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ExecutorError(f"retries must be >= 0, got {retries}")
        self.jobs = jobs
        self.cache = cache if cache is not None else NullCache()
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.progress = progress
        self.store_path = store
        #: on-disk walk-cache directory shipped to pool workers (the
        #: parent's own tier is installed by ``runtime.configure``).
        self.walk_dir = walk_dir
        self.last_manifest: RunManifest | None = None
        self.manifests: list[RunManifest] = []
        #: correlation id tying every log record of this runtime's
        #: batches (and its workers') together.
        self.run_key = uuid.uuid4().hex[:12]

    # ------------------------------------------------------------- helpers

    _LOG_LEVELS = {"pool": logging.WARNING, "store": logging.WARNING,
                   "cell": logging.INFO, "batch": logging.INFO,
                   "summary": logging.INFO}

    def _emit(self, kind: str, message: str, **fields) -> None:
        event = ProgressEvent(kind=kind, message=message, **fields)
        log_event(_log, self._LOG_LEVELS.get(kind, logging.INFO),
                  message, **{k: v for k, v in event.as_dict().items()
                              if k != "message"})
        if self.progress is not None:
            self.progress(event)

    def _attempt_serial(self, task: SimTask,
                        first_attempt: int = 1) -> TaskOutcome:
        """Evaluate one cell in-process with the retry/backoff budget,
        starting the attempt counter at ``first_attempt``."""
        start = time.perf_counter()
        attempt = first_attempt
        while True:
            try:
                record = _evaluate_task(task)
                return TaskOutcome(task, record, cached=False,
                                   wall_time=time.perf_counter() - start,
                                   attempts=attempt)
            except Exception as exc:  # noqa: BLE001 - report, don't die
                if attempt > self.retries:
                    return TaskOutcome(
                        task, None, cached=False,
                        wall_time=time.perf_counter() - start,
                        attempts=attempt,
                        error=f"{type(exc).__name__}: {exc}")
                time.sleep(self.backoff * (2 ** (attempt - 1)))
                attempt += 1

    def _run_serial(self, tasks: Sequence[SimTask]) -> list[TaskOutcome]:
        outcomes = []
        for i, task in enumerate(tasks, 1):
            outcome = self._attempt_serial(task)
            outcomes.append(outcome)
            self._emit("cell",
                       f"[{i}/{len(tasks)}] simulated {task.label} "
                       f"in {outcome.wall_time:.2f}s"
                       + ("" if outcome.ok else f" — {outcome.error}"),
                       task_hash=task.content_hash(), label=task.label,
                       state="simulated" if outcome.ok else "failed",
                       attempt=outcome.attempts,
                       elapsed=outcome.wall_time,
                       done=i, total=len(tasks))
        return outcomes

    def _run_pool(self, tasks: Sequence[SimTask]
                  ) -> tuple[list[TaskOutcome], str]:
        """Fan out over a process pool; returns (outcomes, mode)."""
        try:
            pool = ProcessPoolExecutor(max_workers=self.jobs)
        except (OSError, ImportError, NotImplementedError,
                PermissionError) as exc:
            self._emit("pool", f"process pool unavailable ({exc}); "
                       "falling back to serial execution",
                       total=len(tasks))
            return self._run_serial(tasks), "fallback-serial"

        outcomes: list[TaskOutcome] = [None] * len(tasks)  # type: ignore
        to_retry: list[int] = []
        with pool:
            try:
                # Ship the correlation context and the cache-model
                # selection explicitly: a spawned worker starts from a
                # fresh import, without the parent's contextvars or
                # module globals.
                shipped = worker_context({"run_key": self.run_key})
                reference = uses_reference()
                futures = [(i, pool.submit(_evaluate_task, t,
                                           obs.enabled(),
                                           obs.tracing_enabled(),
                                           shipped, self.walk_dir,
                                           reference))
                           for i, t in enumerate(tasks)]
            except BrokenProcessPool:
                self._emit("pool", "process pool broke on submit; "
                           "falling back to serial execution",
                           total=len(tasks))
                return self._run_serial(tasks), "fallback-serial"
            done = 0
            for i, future in futures:
                task = tasks[i]
                start = time.perf_counter()
                try:
                    record = future.result(timeout=self.timeout)
                    outcomes[i] = TaskOutcome(
                        task, record, cached=False,
                        wall_time=time.perf_counter() - start,
                        attempts=1)
                except FutureTimeoutError:
                    future.cancel()
                    outcomes[i] = TaskOutcome(
                        task, None, cached=False,
                        wall_time=time.perf_counter() - start,
                        attempts=1,
                        error=f"timeout after {self.timeout}s")
                except BrokenProcessPool:
                    # the pool is gone; everything still pending reruns
                    # serially (attempt 1 didn't really happen for them).
                    self._emit("pool", "process pool broke mid-run; "
                               "finishing remaining cells serially",
                               done=done, total=len(tasks))
                    for j, other in futures:
                        if outcomes[j] is None:
                            outcomes[j] = self._attempt_serial(tasks[j])
                    break
                except Exception as exc:  # noqa: BLE001
                    outcomes[i] = TaskOutcome(
                        task, None, cached=False,
                        wall_time=time.perf_counter() - start,
                        attempts=1,
                        error=f"{type(exc).__name__}: {exc}")
                    to_retry.append(i)
                done += 1
                if outcomes[i] is not None:
                    out = outcomes[i]
                    self._emit("cell",
                               f"[{done}/{len(tasks)}] "
                               + (f"simulated {task.label}" if out.ok
                                  else f"failed {task.label} — "
                                       f"{out.error}"),
                               task_hash=task.content_hash(),
                               label=task.label,
                               state="simulated" if out.ok else "failed",
                               attempt=out.attempts,
                               elapsed=out.wall_time,
                               done=done, total=len(tasks))
        # bounded retry, in-process where tracebacks are debuggable
        for i in to_retry:
            if self.retries and not outcomes[i].ok:
                time.sleep(self.backoff)
                retried = self._attempt_serial(tasks[i], first_attempt=2)
                retried.wall_time += outcomes[i].wall_time
                outcomes[i] = retried
        return outcomes, "process-pool"

    # ---------------------------------------------------------------- runs

    def run(self, tasks: Iterable[SimTask]) -> RunReport:
        """Execute a batch of cells: cache lookups, then fan-out."""
        with correlation(run_key=self.run_key):
            return self._run_correlated(tasks)

    def _run_correlated(self, tasks: Iterable[SimTask]) -> RunReport:
        start = time.perf_counter()
        ordered: list[SimTask] = []
        by_hash: dict[str, SimTask] = {}
        for task in tasks:
            h = task.content_hash()
            if h not in by_hash:
                by_hash[h] = task
                ordered.append(task)

        outcomes: dict[str, TaskOutcome] = {}
        misses: list[SimTask] = []
        cached_records = self.cache.get_many(ordered)
        for task in ordered:
            record = cached_records.get(task.content_hash())
            if record is not None:
                outcomes[task.content_hash()] = TaskOutcome(
                    task, record, cached=True, wall_time=0.0, attempts=0)
            else:
                misses.append(task)

        mode = "serial"
        if misses:
            self._emit("batch",
                       f"runtime: {len(ordered)} cells, "
                       f"{len(ordered) - len(misses)} cached, "
                       f"{len(misses)} to simulate (jobs={self.jobs})",
                       done=len(ordered) - len(misses),
                       total=len(ordered))
        if misses and self.jobs > 1:
            fresh, mode = self._run_pool(misses)
        elif misses:
            fresh = self._run_serial(misses)
        else:
            fresh = []
        tracer = obs.tracer()
        for outcome in fresh:
            if outcome.ok:
                # Worker-captured telemetry and traces ride back on the
                # record; fold them into the parent registry/tracer and
                # keep them out of the cache (they describe one
                # execution, not the cell).
                telemetry = outcome.record.pop("telemetry", None)
                if telemetry is not None and obs.enabled():
                    obs.active().merge(telemetry)
                trace_body = outcome.record.pop("trace", None)
                if trace_body is not None and tracer.enabled:
                    tracer.merge(trace_body)
                self.cache.put(outcome.task, outcome.record)
            outcomes[outcome.task.content_hash()] = outcome
        if tracer.enabled:
            # One executor span per freshly simulated cell, in wall-
            # clock microseconds on the runtime track.
            for outcome in fresh:
                us = int(outcome.wall_time * 1e6)
                tracer.span("runtime.executor", outcome.task.label,
                            tracer.alloc(us), us, {
                                "ok": outcome.ok,
                                "attempts": outcome.attempts,
                            })

        entries = [
            ManifestEntry(
                hash=t.content_hash(),
                workload=t.workload,
                input_id=t.input_id,
                scale=t.scale,
                variants=sorted(t.variants),
                cached=outcomes[t.content_hash()].cached,
                wall_time=outcomes[t.content_hash()].wall_time,
                attempts=outcomes[t.content_hash()].attempts,
                error=outcomes[t.content_hash()].error,
            )
            for t in ordered
        ]
        manifest = RunManifest(jobs=self.jobs, mode=mode,
                               wall_time=time.perf_counter() - start,
                               entries=entries, rev=manifest_rev())
        if obs.enabled():
            simulated = sum(1 for o in fresh if o.ok)
            view = obs.active().prefixed("runtime.executor")
            view.counter("batches").add()
            view.counter("cells").add(len(ordered))
            view.counter("cells_cached").add(len(ordered) - len(misses))
            view.counter("cells_simulated").add(simulated)
            view.counter("cells_failed").add(len(fresh) - simulated)
            timer = view.timer("batch")
            timer.observe(manifest.wall_time)
            # Session-cumulative rate: totals accumulate in the shared
            # registry, so the gauge stays comparable across sessions
            # regardless of how many batches ran or in what order (a
            # per-batch rate would let whichever batch happened to run
            # last define the snapshot headline).
            sim_total = view.counter("cells_simulated").value
            if sim_total and timer.total > 0:
                view.gauge("cells_per_sec").set(sim_total / timer.total)
        self.last_manifest = manifest
        self.manifests.append(manifest)
        self._ingest_manifest(manifest)
        report = RunReport(
            outcomes=[outcomes[t.content_hash()] for t in ordered],
            manifest=manifest)
        if misses:
            self._emit("summary", manifest.summary(),
                       elapsed=manifest.wall_time,
                       done=len(ordered), total=len(ordered))
        return report

    def _ingest_manifest(self, manifest: RunManifest) -> None:
        """Auto-ingest this batch's manifest into the experiment store
        when one is configured (the CLI's ``--store`` flag).  A broken
        store degrades to a progress warning — analytics must never
        fail a sweep."""
        if self.store_path is None:
            return
        from ..store import ExperimentStore, ingest_manifest

        try:
            with ExperimentStore(self.store_path) as store:
                ingest_manifest(store, manifest,
                                source="runtime.executor")
        except StoreError as exc:
            # _emit already logs this at WARNING; the counter makes it
            # visible on a live server's /metrics.
            self._emit("store", f"store ingest failed: {exc}")
            obs.counter("store.ingest_failures").add()

    def run_cells(self, tasks: Iterable[SimTask]) -> dict[SimTask, object]:
        """Run a batch and return ``{task: WorkloadRun}``; raises
        :class:`ExecutorError` if any cell ultimately failed."""
        report = self.run(tasks)
        if report.failures:
            raise ExecutorError(report.manifest.summary())
        return report.runs()
