"""`repro.runtime` — the experiment execution subsystem.

Every figure/table driver declares its sweep as a list of
:class:`SimTask` cells and submits them through the *active runtime*,
which layers three services under the drivers:

* **content-addressed caching** (:class:`ResultCache`): results are
  keyed by a sha256 over the full task spec plus a code-version salt,
  so a warm-cache rerun of the whole evaluation is near-instant and a
  model change never serves stale numbers;
* **parallel fan-out** (:class:`Runtime`): misses run across a process
  pool (``jobs > 1``) with per-cell timeout, bounded retry and a
  serial fallback;
* **provenance** (:class:`RunManifest`): every batch records task
  hashes, wall-times, cache hits and failures, and the runtime keeps
  one manifest for its whole run (:attr:`Runtime.manifest`).

The module-level :func:`configure` / :func:`active_runtime` pair holds
the process-wide runtime the drivers use; the CLI and the benchmark
harness configure it, and tests drop it with :func:`reset`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from .cache import CacheStats, MemoryCache, ResultCache, WalkStore, open_cache
from .executor import ProgressEvent, RunReport, Runtime, TaskOutcome
from .manifest import ManifestEntry, RunManifest
from .task import (
    CODE_SALT,
    SimTask,
    machine_from_dict,
    machine_to_dict,
    run_from_record,
    task_from_spec,
)

__all__ = [
    "SimTask",
    "Runtime",
    "RunReport",
    "TaskOutcome",
    "ProgressEvent",
    "ResultCache",
    "MemoryCache",
    "CacheStats",
    "WalkStore",
    "RunManifest",
    "ManifestEntry",
    "CODE_SALT",
    "machine_to_dict",
    "machine_from_dict",
    "run_from_record",
    "task_from_spec",
    "configure",
    "resolve_walk_dir",
    "active_runtime",
    "reset",
]

#: default on-disk cache location (relative to the working directory);
#: the CLI and README document it, .gitignore covers it.
DEFAULT_CACHE_DIR = ".repro-cache"

_active: Runtime | None = None


def resolve_walk_dir(walk_cache: str | Path | None,
                      cache_dir: str | Path | None) -> Path | None:
    """The on-disk walk-cache directory, or ``None`` when disabled:
    ``"auto"`` places the tier at ``<cache_dir>/walks`` and disables
    it when the result cache itself is off; ``0``/``off`` disables it.
    """
    if walk_cache is None:
        return None
    text = str(walk_cache).strip()
    if text.lower() in ("", "0", "off", "no", "none", "false"):
        return None
    if text == "auto":
        return Path(cache_dir) / "walks" if cache_dir is not None else None
    return Path(text)


def configure(*, jobs: int = 1,
              cache_dir: str | Path | None = None,
              timeout: float | None = None, retries: int = 1,
              progress: Callable[[ProgressEvent], None] | None = None,
              walk_cache: str | Path | None = "auto",
              reference: bool = False,
              ) -> Runtime:
    """Install (and return) the process-wide runtime.

    ``cache_dir=None`` disables the on-disk cache: the runtime keeps
    its records in memory (:class:`MemoryCache`), so a cell repeated
    within the run is answered from there and reported as cached.
    The runtime writes nothing to the experiment store
    (:mod:`repro.store`): the caller files the run's one manifest,
    :attr:`Runtime.manifest`.  ``walk_cache`` controls the persistent
    walk-cache tier (:class:`WalkStore`): ``"auto"`` (default) keeps
    it beside the result cache at ``<cache_dir>/walks``, a path pins
    it there, and ``None``/``"off"`` disables it.  ``reference``
    selects the golden-reference cache walk
    (:func:`repro.sim.memsys.configure_reference`) in-process; pool
    workers receive the selection with each task.
    """
    global _active
    walk_dir = resolve_walk_dir(walk_cache, cache_dir)
    # Install the disk tier process-wide: serial runs and the in-pool
    # parent share it here; pool workers install their own copy from
    # the walk_dir shipped with each task.
    from ..sim.memsys import configure_reference, configure_walk_store

    configure_walk_store(WalkStore(walk_dir) if walk_dir is not None
                         else None)
    configure_reference(reference)
    _active = Runtime(jobs=jobs, cache=open_cache(cache_dir),
                      timeout=timeout, retries=retries, progress=progress,
                      walk_dir=None if walk_dir is None else str(walk_dir))
    return _active


def active_runtime() -> Runtime:
    """The process-wide runtime; a serial, memory-cached one by default."""
    global _active
    if _active is None:
        _active = Runtime()
    return _active


def reset() -> None:
    """Drop the process-wide runtime (tests / teardown), and with it
    the walk disk tier and cache-model selection :func:`configure`
    installed in :mod:`repro.sim.memsys`."""
    global _active
    from ..sim.memsys import configure_reference, configure_walk_store

    configure_walk_store(None)
    configure_reference(False)
    _active = None
