"""Content-addressed on-disk result store.

Records are JSON files named ``<sha256>.json`` under the cache root;
the hash covers the full task spec *and* a code salt
(:data:`repro.runtime.task.CODE_SALT`, a digest of the package's
source), so after any source edit a lookup misses instead of serving
a stale result.
:meth:`ResultCache.gc` reclaims those orphaned entries.  Without a
cache directory, :func:`open_cache` gives a bounded :class:`MemoryCache`.

All the cache classes are safe for concurrent readers and writers within
one process (the simulation service shares a single instance across
its worker threads): file operations are atomic renames, and counters
and the in-memory map change under an internal lock, so two threads
never lose an update to a read-modify-write race.  Across processes (a service
and a one-shot CLI run sharing a cache dir), writes of the same hash
produce identical bytes by construction, so last-rename-wins is
harmless.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from ..sim.memsys import WALK_SCHEMA
from .task import CODE_SALT, SimTask

#: records a :class:`MemoryCache` keeps (``repro all`` has 226 distinct cells).
MEMORY_CACHE_ENTRIES = 256


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance's lifetime."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    errors: int = 0


def _task_hash(task: SimTask | str) -> str:
    return task if isinstance(task, str) else task.content_hash()


class MemoryCache:
    """The last :data:`MEMORY_CACHE_ENTRIES` records, least recently
    used evicted first: a cell repeated within one run (Figs. 10, 11
    and 13 share a sweep) is answered here instead of simulated again,
    and a long-running server's memory stays flat."""

    def __init__(self) -> None:
        self._records: OrderedDict[str, dict] = OrderedDict()
        self._lock = threading.Lock()

    def get_many(self, tasks: Iterable[SimTask | str]
                 ) -> dict[str, dict | None]:
        """``{hash: record-or-None}``; a hit becomes most recent."""
        found = {}
        with self._lock:
            for h in map(_task_hash, tasks):
                found[h] = self._records.get(h)
                if found[h] is not None:
                    self._records.move_to_end(h)
        return found

    def put(self, task: SimTask | str, record: dict) -> None:
        h = _task_hash(task)
        with self._lock:
            self._records[h] = record
            self._records.move_to_end(h)
            if len(self._records) > MEMORY_CACHE_ENTRIES:
                self._records.popitem(last=False)


def open_cache(cache_dir: str | Path | None = None) -> ResultCache | MemoryCache:
    """The result cache at ``cache_dir``, else a :class:`MemoryCache`."""
    return ResultCache(Path(cache_dir)) if cache_dir is not None else MemoryCache()


@dataclass
class _JsonFiles:
    """The file layer of both disk stores: ``<name>.json`` records
    under ``root``, written by atomic rename of a per-pid/tid temp
    file; a record that does not parse is dropped on read and on
    :meth:`gc`.  Each store defines ``_stale(payload)``: whether
    :meth:`gc` reclaims a parsable record."""

    root: Path

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, name: SimTask | str) -> Path:
        return self.root / f"{_task_hash(name)}.json"

    def _read(self, path: Path) -> tuple[object, int] | None:
        """``(payload, size_in_bytes)`` of one record, or ``None``
        when absent.  A corrupt record is dropped and raises
        ``ValueError``."""
        try:
            raw = path.read_bytes()
            return json.loads(raw), len(raw)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            path.unlink(missing_ok=True)
            raise ValueError(f"corrupt record {path.name}") from exc

    def _write(self, path: Path, payload) -> int:
        """Atomically persist one record; returns bytes written."""
        tmp = path.with_suffix(
            f".tmp.{os.getpid()}.{threading.get_ident()}")
        data = json.dumps(payload, sort_keys=True)
        tmp.write_text(data, encoding="utf-8")
        os.replace(tmp, path)
        return len(data)

    def clear(self) -> int:
        """Remove every record; returns the number removed."""
        removed = 0
        for path in self.root.glob("*.json"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def gc(self) -> int:
        """Remove stale temp files, unparsable records and the records
        :meth:`_stale` rejects; returns the number reclaimed."""
        removed = 0
        for tmp in self.root.glob("*.tmp.*"):
            tmp.unlink(missing_ok=True)
            removed += 1
        for path in self.root.glob("*.json"):
            try:
                stale = self._stale(
                    json.loads(path.read_text(encoding="utf-8")))
            except (OSError, ValueError):
                stale = True
            if stale:
                path.unlink(missing_ok=True)
                removed += 1
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))


@dataclass
class ResultCache(_JsonFiles):
    """Content-addressed store of task result records.

    All operations are safe against concurrent writers of the *same*
    record (writes are atomic renames of a per-pid temp file, and any
    writer produces identical bytes for a given hash by construction).
    :meth:`gc` also reclaims records whose code-version salt no longer
    matches the running code.
    """

    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        super().__post_init__()
        # not a dataclass field: locks don't compare, copy or serialize
        self._lock = threading.Lock()

    def get(self, task: SimTask | str) -> dict | None:
        """The stored record, or ``None`` on miss (corrupt entries are
        dropped and counted as misses)."""
        try:
            found = self._read(self.path_for(task))
        except ValueError:
            with self._lock:
                self.stats.misses += 1
                self.stats.errors += 1
            return None
        # hash collisions across salts are impossible, but a record
        # written by a hand-rolled tool might lie; be strict.
        if found is None or self._stale(found[0]):
            with self._lock:
                self.stats.misses += 1
            return None
        with self._lock:
            self.stats.hits += 1
        return found[0]

    def get_many(self, tasks: Iterable[SimTask | str]
                 ) -> dict[str, dict | None]:
        """Batch lookup: ``{hash: record-or-None}`` for every task.

        One call, one stats settlement — the executor and the service
        use this for the leading is-it-cached sweep over a batch."""
        return {_task_hash(t): self.get(_task_hash(t)) for t in tasks}

    def put(self, task: SimTask | str, record: dict) -> None:
        self._write(self.path_for(task), record)
        with self._lock:
            self.stats.puts += 1

    def _stale(self, payload) -> bool:
        return not isinstance(payload, dict) or payload.get(
            "salt") != CODE_SALT


@dataclass
class WalkStore(_JsonFiles):
    """On-disk tier of the hierarchy walk cache (see
    :class:`repro.sim.memsys.WalkCache`).

    Same file layer and concurrency story as :class:`ResultCache` —
    ``<sha256>.json`` records, atomic per-pid/tid temp renames,
    identical bytes for identical digests — but keyed by the *walk*
    content address (cache geometry + raw stream bytes) rather than a
    task spec, and schema-gated by the payload's own
    ``repro.walk/...`` tag instead of :data:`CODE_SALT`: the tag digests
    only the walk's own modules, so a record survives the timing-model
    edits that invalidate task results.  :meth:`gc` reclaims the records
    of another walk schema.
    """

    def load(self, digest: str) -> tuple[dict | None, int]:
        """``(payload, size_in_bytes)`` for a stored walk, or
        ``(None, 0)`` on miss; corrupt records are dropped."""
        try:
            return self._read(self.path_for(digest)) or (None, 0)
        except ValueError:
            return None, 0

    def save(self, digest: str, payload: dict) -> int:
        """Atomically persist one walk record; returns bytes written."""
        return self._write(self.path_for(digest), payload)

    def _stale(self, payload) -> bool:
        return not isinstance(payload, dict) or payload.get(
            "schema") != WALK_SCHEMA
