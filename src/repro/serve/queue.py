"""The job queue: priority ordering, per-client quotas, lazy cancel.

A small, exactly-specified core the scheduler drives:

* **priority**: higher ``priority`` pops first; ties pop in submission
  order (a monotonic sequence number keeps the heap stable).
* **quota**: each client may hold at most ``quota`` *active* jobs —
  queued or running — counted from :meth:`push` until :meth:`release`.
  Pushing past the quota raises :class:`QuotaError` (HTTP 429); jobs
  re-enqueued by crash recovery bypass enforcement so a restart never
  drops accepted work.
* **cancel**: queued entries are cancelled lazily — the id goes into a
  tombstone set and :meth:`pop` discards it on the way out (heap
  surgery under a lock is not worth it at this scale).
"""

from __future__ import annotations

import heapq
import threading
from collections import Counter

from ..errors import ServeError

#: default per-client active-job quota.
DEFAULT_QUOTA = 8


class QuotaError(ServeError):
    """The client already holds its full quota of active jobs."""


class JobQueue:
    """Thread-safe priority queue of job ids with client accounting."""

    def __init__(self, quota: int = DEFAULT_QUOTA) -> None:
        if quota < 1:
            raise ServeError(f"quota must be >= 1, got {quota}")
        self.quota = quota
        self._heap: list[tuple[int, int, str, str]] = []
        self._seq = 0
        self._queued: set[str] = set()
        self._tombstones: set[str] = set()
        self._active: Counter[str] = Counter()
        self._cond = threading.Condition()
        self._closed = False

    # ----------------------------------------------------------- lifecycle

    @property
    def accepting(self) -> bool:
        """Whether :meth:`push` will take new work (readiness probe)."""
        with self._cond:
            return not self._closed

    def close(self) -> None:
        """Stop accepting submissions (service shutdown); queued work
        already accepted still pops normally."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # ------------------------------------------------------------ submit

    def push(self, job_id: str, *, client: str, priority: int = 0,
             enforce_quota: bool = True) -> None:
        """Enqueue a job and reserve one slot of the client's quota
        (held until :meth:`release`)."""
        with self._cond:
            if self._closed:
                raise ServeError("queue is closed to new submissions")
            if job_id in self._queued:
                return  # already waiting; keep its original position
            if enforce_quota and self._active[client] >= self.quota:
                raise QuotaError(
                    f"client {client!r} already has "
                    f"{self._active[client]} active jobs "
                    f"(quota {self.quota})")
            self._active[client] += 1
            self._seq += 1
            heapq.heappush(self._heap,
                           (-priority, self._seq, job_id, client))
            self._queued.add(job_id)
            self._tombstones.discard(job_id)
            self._cond.notify()

    # -------------------------------------------------------------- pop

    def pop(self, timeout: float | None = None) -> str | None:
        """The next job id by (priority, submission order), or ``None``
        on timeout.  Tombstoned (cancelled) entries are discarded in
        passing — whoever cancelled them already released their quota
        slot."""
        with self._cond:
            while True:
                while self._heap:
                    _, _, job_id, _client = heapq.heappop(self._heap)
                    self._queued.discard(job_id)
                    if job_id in self._tombstones:
                        self._tombstones.discard(job_id)
                        continue
                    return job_id
                if timeout is not None:
                    if not self._cond.wait(timeout):
                        return None
                    timeout = 0.0  # one wakeup, then drain or give up
                else:
                    self._cond.wait()

    # ------------------------------------------------------- accounting

    def _release_locked(self, client: str) -> None:
        self._active[client] -= 1
        if self._active[client] <= 0:
            del self._active[client]

    def release(self, client: str) -> None:
        """Return one quota slot (job finished, failed terminally, or
        was cancelled while queued)."""
        with self._cond:
            self._release_locked(client)

    def cancel(self, job_id: str) -> bool:
        """Tombstone a queued entry; returns whether it was queued.
        On True the caller owns the now-dead quota slot and must
        :meth:`release` it."""
        with self._cond:
            if job_id not in self._queued:
                return False
            self._tombstones.add(job_id)
            self._queued.discard(job_id)
            return True

    @property
    def depth(self) -> int:
        """Jobs currently waiting (excludes tombstoned entries)."""
        with self._cond:
            return len(self._queued)
