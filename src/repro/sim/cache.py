"""Set-associative cache model with LRU replacement and MSHR bookkeeping.

The model is *behavioural*: it classifies an ordered address stream into
hits and misses.  Timing is derived later by the interval core model;
the MSHR count is carried along as the memory-level-parallelism bound
of the level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..config import CacheConfig
from ..errors import SimulationError


@dataclass
class CacheStats:
    """Hit/miss counters for one cache level."""

    accesses: int = 0
    hits: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class _CacheTelemetry:
    """Per-instance cache of the telemetry handles used on every call.

    ``obs.active()`` / ``obs.tracer()`` involve module-global lookups
    and a prefixed-view allocation per call; ``lookup_lines`` instead
    keeps the resolved handles here and refreshes them only when the
    process-wide registry or tracer identity changes (the same hoisting
    pattern :mod:`repro.tmu.engine` uses).  With telemetry disabled the
    per-call cost is two attribute reads and two identity compares.
    """

    __slots__ = ("registry", "accesses", "hits", "tracer")

    def __init__(self) -> None:
        self.registry = None
        self.accesses = None
        self.hits = None
        self.tracer = obs.NULL_TRACER

    def refresh(self, name: str):
        registry = obs.active()
        if registry is not self.registry:
            self.registry = registry
            if registry is not None and name:
                view = registry.prefixed(f"sim.cache.{name}")
                self.accesses = view.counter("accesses")
                self.hits = view.counter("hits")
            else:
                self.accesses = None
                self.hits = None
        self.tracer = obs.tracer()
        return self


def settle_lookup(cache, accesses: int, hit_count: int) -> None:
    """Fold an externally computed lookup outcome into a cache object's
    stats and published telemetry — exactly the bookkeeping
    ``lookup_lines`` performs, for callers (the stack-distance walk in
    :mod:`repro.sim.memsys`) that classify a stream without driving the
    cache's own state machine."""
    cache.stats.accesses += accesses
    cache.stats.hits += hit_count
    if cache.name:
        _publish(cache._tele.refresh(cache.name), cache.name,
                 accesses, hit_count)


def _publish(tele: _CacheTelemetry, name: str, n: int, hit_count: int) -> None:
    """Publish one lookup_lines call's counters/trace events."""
    if tele.accesses is not None:
        tele.accesses.add(n)
        tele.hits.add(hit_count)
    tracer = tele.tracer
    if tracer.enabled and n:
        track = f"sim.cache.{name}"
        misses = n - hit_count
        if misses:
            tracer.instant(track, "misses", args={"count": misses})
        tracer.sample(track, "hit_rate", hit_count / n)


class Cache:
    """One set-associative, LRU, write-allocate cache level.

    ``lookup_lines`` consumes *cache line* numbers (byte address >>
    log2(line)); hits update recency, misses install the line.  The
    model is inclusive-of-nothing: levels are composed externally by
    feeding one level's misses into the next.
    """

    def __init__(self, config: CacheConfig, name: str = "") -> None:
        self.config = config
        #: telemetry identity; named caches publish hit profiles under
        #: ``sim.cache.<name>`` when :mod:`repro.obs` is enabled
        self.name = name
        self.num_sets = config.num_sets
        self.ways = config.ways
        if self.num_sets & (self.num_sets - 1):
            raise SimulationError("cache set count must be a power of two")
        self._set_mask = self.num_sets - 1
        # Per-set list of tags in LRU order (index 0 = LRU).
        self._sets: list[list[int]] = [[] for _ in range(self.num_sets)]
        self.stats = CacheStats()
        self._tele = _CacheTelemetry()

    def reset(self) -> None:
        self._sets = [[] for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def lookup_lines(self, lines: np.ndarray) -> np.ndarray:
        """Process line numbers in order; return a boolean hit mask."""
        lines = np.asarray(lines, dtype=np.int64)
        hits = np.zeros(lines.size, dtype=bool)
        sets = self._sets
        mask = self._set_mask
        ways = self.ways
        line_list = lines.tolist()
        hit_count = 0
        for k, line in enumerate(line_list):
            s = sets[line & mask]
            try:
                s.remove(line)
            except ValueError:
                # miss: install as MRU, evict LRU if full
                if len(s) >= ways:
                    s.pop(0)
                s.append(line)
            else:
                s.append(line)
                hits[k] = True
                hit_count += 1
        settle_lookup(self, int(lines.size), hit_count)
        return hits


def line_shift(line_bytes: int) -> int:
    """log2 of a line size, which must be a power of two."""
    shift = int(line_bytes).bit_length() - 1
    if (1 << shift) != line_bytes:
        raise SimulationError("line size must be a power of two")
    return shift


def to_lines(addresses: np.ndarray, line_bytes: int = 64) -> np.ndarray:
    """Convert byte addresses to cache-line numbers."""
    return np.asarray(addresses, dtype=np.int64) >> line_shift(line_bytes)


def dedup_consecutive(lines: np.ndarray) -> np.ndarray:
    """Drop immediately repeated line numbers (models the fact that
    consecutive same-line accesses coalesce into one request)."""
    lines = np.asarray(lines, dtype=np.int64)
    if lines.size == 0:
        return lines
    keep = np.concatenate(([True], lines[1:] != lines[:-1]))
    return lines[keep]
