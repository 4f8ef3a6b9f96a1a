"""Run manifests: the provenance record of one run.

A manifest captures what was asked (task hashes and labels), what it
cost (per-cell wall time, attempts), and where results came from
(cache hit vs fresh simulation vs failure).  Each executor batch gets
one, and the runtime folds every batch into one run-level manifest
(:attr:`Runtime.manifest`), which the CLI writes next to the cache so
a result directory is self-describing, and files in the experiment
store.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path

MANIFEST_SCHEMA_VERSION = 1


@lru_cache(maxsize=1)
def manifest_rev() -> str:
    """The git rev label runs are filed under (``-dirty``-suffixed for
    modified worktrees), resolved once per process — manifests are
    created per executor batch and must not shell out to git each
    time."""
    from ..obs.snapshot import bench_rev

    return bench_rev()


@dataclass
class ManifestEntry:
    """One task's outcome inside a run."""

    hash: str
    workload: str
    input_id: str
    scale: str
    variants: list[str]
    cached: bool
    wall_time: float
    attempts: int
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class RunManifest:
    """The provenance record of one :meth:`Runtime.run` call, or of
    every call of one runtime (see :meth:`extend`)."""

    jobs: int
    mode: str                       # serial / process-pool / fallback-serial
    created_at: float = field(default_factory=time.time)
    wall_time: float = 0.0
    entries: list[ManifestEntry] = field(default_factory=list)
    schema: int = MANIFEST_SCHEMA_VERSION
    rev: str | None = None          # git rev the run executed at

    # ------------------------------------------------------------- derived

    @property
    def total(self) -> int:
        return len(self.entries)

    @property
    def cache_hits(self) -> int:
        return sum(1 for e in self.entries if e.cached)

    @property
    def cache_misses(self) -> int:
        return self.total - self.cache_hits

    @property
    def failures(self) -> list[ManifestEntry]:
        return [e for e in self.entries if not e.ok]

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0

    @property
    def simulated(self) -> int:
        """Cells that actually ran a simulation (miss and succeeded)."""
        return sum(1 for e in self.entries if not e.cached and e.ok)

    def extend(self, batch: "RunManifest") -> None:
        """Fold a later batch into this record: its entries append,
        its wall time adds, and its execution mode becomes the run's."""
        self.mode = batch.mode
        self.wall_time += batch.wall_time
        self.entries.extend(batch.entries)

    # ------------------------------------------------------------ plumbing

    def to_dict(self) -> dict:
        data = asdict(self)
        data.update(
            total=self.total,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            hit_rate=self.hit_rate,
            failed=len(self.failures),
        )
        return data

    def write(self, path: Path | str) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2,
                                   sort_keys=True),
                        encoding="utf-8")
        return path

    @classmethod
    def load_dict(cls, data: dict) -> "RunManifest":
        """Rebuild a manifest from :meth:`to_dict` output (what the
        experiment store's ingest layer consumes)."""
        entries = [
            ManifestEntry(**{
                k: v for k, v in e.items()
                if k in ManifestEntry.__dataclass_fields__})
            for e in data.get("entries", ())
        ]
        return cls(
            jobs=data["jobs"],
            mode=data["mode"],
            created_at=data.get("created_at", 0.0),
            wall_time=data.get("wall_time", 0.0),
            entries=entries,
            schema=data.get("schema", MANIFEST_SCHEMA_VERSION),
            rev=data.get("rev"),
        )

    def summary(self) -> str:
        """One-paragraph human report for the CLI / logs."""
        lines = [
            f"runtime: {self.total} cells in {self.wall_time:.2f}s "
            f"({self.mode}, jobs={self.jobs}): "
            f"{self.cache_hits} cached ({self.hit_rate:.0%}), "
            f"{self.simulated} simulated, {len(self.failures)} failed",
        ]
        for entry in self.failures:
            lines.append(
                f"  FAILED {entry.workload}/{entry.input_id}"
                f"@{entry.scale} after {entry.attempts} attempt(s): "
                f"{entry.error}"
            )
        return "\n".join(lines)
