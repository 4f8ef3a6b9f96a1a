"""Job records and the on-disk job journal.

A :class:`Job` is the persistent state machine of one accepted sweep::

    PENDING ──> RUNNING ──> DONE
       │           │ └────> FAILED
       │           ├──────> CANCELLED
       │           └──────> PENDING      (requeue after worker death,
       └─────────> CANCELLED              or recovery after a restart)

FAILED / CANCELLED additionally re-open to PENDING when the same sweep
is resubmitted.  Every transition and every executor progress event is
journaled by the :class:`JobStore` — one ``<id>.json`` record plus an
append-only ``<id>.events.jsonl`` per job — so a restarted server
resumes exactly where it stopped: RUNNING jobs demote to PENDING and
re-run, and their already-completed cells are re-served from the
result cache instead of being simulated again.
"""

from __future__ import annotations

import enum
import json
import logging
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..errors import ServeError
from ..obs.logging import get_logger, log_event
from .protocol import SERVE_SCHEMA

_log = get_logger("serve.jobs")


class JobState(str, enum.Enum):
    """The lifecycle states of a job (string-valued for plain JSON)."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED,
                        JobState.CANCELLED)


#: legal state-machine edges; everything else raises ServeError.
_TRANSITIONS = {
    JobState.PENDING: {JobState.RUNNING, JobState.CANCELLED},
    JobState.RUNNING: {JobState.DONE, JobState.FAILED,
                       JobState.CANCELLED, JobState.PENDING},
    JobState.DONE: set(),
    JobState.FAILED: {JobState.PENDING},
    JobState.CANCELLED: {JobState.PENDING},
}


@dataclass
class Job:
    """One accepted sweep and everything known about its execution."""

    id: str
    client: str = "anon"
    priority: int = 0
    sweep: dict = field(default_factory=dict)
    cells: list[str] = field(default_factory=list)
    state: JobState = JobState.PENDING
    created_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    completed: int = 0
    cached: int = 0
    simulated: int = 0
    failed: int = 0
    requeues: int = 0
    error: str | None = None
    schema: str = SERVE_SCHEMA

    def __post_init__(self) -> None:
        self.state = JobState(self.state)

    @property
    def total(self) -> int:
        return len(self.cells)

    def advance(self, state: JobState | str) -> None:
        """Move to ``state``, enforcing the legal transitions."""
        state = JobState(state)
        if state not in _TRANSITIONS[self.state]:
            raise ServeError(
                f"job {self.id[:12]}: illegal transition "
                f"{self.state.value} -> {state.value}")
        self.state = state
        if state is JobState.RUNNING and self.started_at is None:
            self.started_at = time.time()
        if state.terminal:
            self.finished_at = time.time()

    def reopen(self) -> None:
        """Reset execution progress for a re-run (resubmit of a FAILED
        or CANCELLED job, or recovery of an interrupted RUNNING one).
        Completed cells live in the result cache, not here, so nothing
        is lost — the re-run serves them as cache hits."""
        self.advance(JobState.PENDING)
        self.completed = self.cached = self.simulated = self.failed = 0
        self.finished_at = None
        self.error = None

    def as_dict(self) -> dict:
        data = asdict(self)
        data["state"] = self.state.value
        data["total"] = self.total
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Job":
        fields = {k: v for k, v in data.items()
                  if k in cls.__dataclass_fields__}
        return cls(**fields)


class JobStore:
    """The journal: atomic job records + append-only event logs.

    Thread-safe; writers notify a condition variable on every event
    append so the HTTP event stream can block instead of busy-poll.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._event_cond = threading.Condition(self._lock)

    def path_for(self, job_id: str) -> Path:
        return self.root / f"{job_id}.json"

    def events_path(self, job_id: str) -> Path:
        return self.root / f"{job_id}.events.jsonl"

    # ------------------------------------------------------- job records

    def put(self, job: Job) -> None:
        path = self.path_for(job.id)
        tmp = path.with_suffix(
            f".tmp.{os.getpid()}.{threading.get_ident()}")
        with self._lock:
            tmp.write_text(json.dumps(job.as_dict(), sort_keys=True),
                           encoding="utf-8")
            os.replace(tmp, path)

    def get(self, job_id: str) -> Job | None:
        try:
            data = json.loads(
                self.path_for(job_id).read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as exc:
            raise ServeError(
                f"corrupt job record {job_id[:12]}: {exc}") from exc
        return Job.from_dict(data)

    def delete(self, job_id: str) -> None:
        """Remove a job record and its event journal (submit rollback
        after a quota rejection)."""
        with self._lock:
            self.path_for(job_id).unlink(missing_ok=True)
            self.events_path(job_id).unlink(missing_ok=True)

    def list(self) -> list[Job]:
        jobs = []
        for path in self.root.glob("*.json"):
            if ".events" in path.name or ".tmp." in path.name:
                continue
            try:
                jobs.append(Job.from_dict(
                    json.loads(path.read_text(encoding="utf-8"))))
            except (OSError, json.JSONDecodeError) as exc:
                log_event(_log, logging.WARNING,
                          "skipping corrupt job record",
                          record=path.name, error=str(exc))
                continue
        return sorted(jobs, key=lambda j: (j.created_at, j.id))

    def writable(self) -> bool:
        """Whether the journal directory accepts writes (readiness
        probe — a full or read-only disk must flip ``/readyz``)."""
        return self.root.is_dir() and os.access(self.root, os.W_OK)

    # ------------------------------------------------------ event journal

    def append_event(self, job_id: str, event: dict) -> None:
        line = json.dumps({"ts": time.time(), **event}, sort_keys=True)
        with self._event_cond:
            with self.events_path(job_id).open(
                    "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
            self._event_cond.notify_all()

    def events(self, job_id: str, since: int = 0) -> list[dict]:
        """Journaled events from line index ``since`` onward."""
        try:
            with self.events_path(job_id).open(
                    "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except FileNotFoundError:
            return []
        out = []
        for line in lines[since:]:
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # torn tail write; next read picks it up
        return out

    def wait_events(self, job_id: str, since: int = 0,
                    timeout: float = 1.0) -> list[dict]:
        """Like :meth:`events`, but block up to ``timeout`` seconds for
        something new to appear past ``since``."""
        deadline = time.monotonic() + timeout
        while True:
            fresh = self.events(job_id, since)
            if fresh:
                return fresh
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return []
            with self._event_cond:
                self._event_cond.wait(remaining)

    # ----------------------------------------------------------- recovery

    def recover(self) -> list[Job]:
        """Demote interrupted RUNNING jobs to PENDING and return every
        job that needs (re-)enqueueing, oldest first.  Called once at
        server startup before the scheduler starts."""
        pending = []
        for job in self.list():
            if job.state is JobState.RUNNING:
                job.reopen()
                job.requeues += 1
                self.put(job)
                self.append_event(job.id, {
                    "event": "recovered",
                    "message": "server restarted mid-job; requeued",
                })
                pending.append(job)
            elif job.state is JobState.PENDING:
                pending.append(job)
        return pending
