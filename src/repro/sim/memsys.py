"""Memory hierarchy composition and access profiling.

:class:`MemoryHierarchy` feeds a kernel's address streams through the
L1D → L2 → LLC chain and produces an :class:`AccessProfile`: per-level
hit counts, off-chip bytes, and the average load-to-use latency — the
inputs of the interval core model and the roofline analysis.

Modeling notes (vs. gem5):

* Streams are filtered per level; one level's misses are replayed into
  the next, which is exact for an exclusive-of-nothing composition and
  a good approximation of the paper's mostly-exclusive LLC.  The core's
  L1D → L2 → LLC walk and the TMU's LLC-only walk are the same walk
  over a tuple of levels.
* Long streams are *window-sampled*: a prefix window of
  :data:`SAMPLE_WINDOW` lines of each stream is simulated and the hit
  rates extrapolated.  Sampling is on at every scale: in ``repro all``
  at ``--scale small``, 18 of the 766 stream preps reach the window.
* Hardware prefetchers (L1 stride / L2 best-offset) are modeled as a
  coverage factor on sequential streams, computed from each stream's
  measured sequentiality.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields

import numpy as np

from .. import obs
from ..config import MachineConfig
from ..memo import IdentityLRU
from ..source import source_digest
from . import stackdist
from .cache import (
    Cache,
    dedup_consecutive,
    line_shift,
    settle_lookup,
    to_lines,
)
from .trace import AccessStream, Gather, KernelTrace, Ranges


@dataclass(frozen=True, slots=True)
class StreamProfile:
    """Per-stream outcome of the hierarchy walk.  Immutable, so a walk
    memo hands its stored profiles out without copying them."""

    label: str
    kind: str
    dependent: bool
    gather: bool = False
    accesses: int = 0
    bytes: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    llc_hits: int = 0
    mem_accesses: int = 0
    prefetch_coverage: float = 0.0


@dataclass
class AccessProfile:
    """Aggregate memory behaviour of one kernel run on one core."""

    streams: list[StreamProfile] = field(default_factory=list)
    line_bytes: int = 64

    def total(self, attr: str, kind: str | None = None) -> int:
        return sum(getattr(s, attr) for s in self.streams
                   if kind is None or s.kind == kind)

    @property
    def mem_lines(self) -> int:
        return self.total("mem_accesses")

    @property
    def mem_bytes(self) -> int:
        """Off-chip traffic (cache-line granular)."""
        return self.mem_lines * self.line_bytes

    def average_load_latency(self, machine: MachineConfig) -> float:
        """Mean load-to-use latency in cycles, weighted by access counts
        (reads only), after prefetch coverage."""
        l1 = machine.l1d.latency
        l2 = machine.l2.latency
        llc = machine.llc.latency + machine.noc.average_latency() / 2
        mem = machine.memory_latency_cycles()
        total_lat = 0.0
        total_cnt = 0
        for s in self.streams:
            if s.kind != "read" or s.accesses == 0:
                continue
            covered = s.prefetch_coverage
            # Prefetched lines are served at ~L2 latency.
            miss_lat = covered * l2 + (1 - covered) * mem
            llc_lat = covered * l2 + (1 - covered) * llc
            total_lat += (
                s.l1_hits * l1
                + s.l2_hits * l2
                + s.llc_hits * llc_lat
                + s.mem_accesses * miss_lat
            )
            total_cnt += s.accesses
        return total_lat / total_cnt if total_cnt else 0.0


#: The modules that decide a walk's outcome for a given (geometry,
#: stream content) pair: this one and the ``repro`` modules it imports,
#: less ``obs``, ``memo``, ``errors`` and ``source``, which decide no
#: profile.  ``tests/test_source_digest.py`` checks the list against
#: those imports.
WALK_MODULES = ("repro.sim.memsys", "repro.sim.stackdist", "repro.sim.cache",
                "repro.sim.trace", "repro.types", "repro.config")

#: Schema tag of serialized walk records, a digest of the walk's own
#: source: an edit to it misses every stored record, which must never
#: poison a result, and an edit elsewhere keeps them.
WALK_SCHEMA = "repro.walk/" + source_digest(WALK_MODULES)


def _stream_meta(s: AccessStream) -> tuple:
    """Everything a walk reads from a stream besides its index."""
    return (s.label, s.kind, s.dependent, s.gather, int(s.bytes),
            s.base, s.stride)


def _walk_digest(key: tuple, streams: list[AccessStream]) -> str:
    """Content address of one walk: sha256 over the cache geometry /
    sampling key, each stream's metadata and the full stream contents,
    folded in as each stream's cached :meth:`~AccessStream.digest`.
    The hierarchy walk, the LLC-only walk and the post-miss ``put`` of
    a stream hash its index once between them."""
    h = hashlib.sha256()
    h.update(repr((WALK_SCHEMA, key, [_stream_meta(s) for s in streams])
                  ).encode())
    for s in streams:
        h.update(s.digest().encode())
    return h.hexdigest()


def _encode_walk(value) -> dict:
    """Walk value -> JSON-able payload for the disk tier.  Each profile
    is ``dataclasses.asdict``'s dict, built field by field: its leaves
    are scalars and need no deep copy."""
    profiles, levels = value
    return {"schema": WALK_SCHEMA,
            "profiles": [{f.name: getattr(sp, f.name) for f in fields(sp)}
                         for sp in profiles],
            "levels": [[int(a), int(hits)] for a, hits in levels]}


def _decode_walk(payload: dict):
    """Disk payload -> walk value, or None when unusable."""
    if not isinstance(payload, dict) or payload.get(
            "schema") != WALK_SCHEMA:
        return None
    try:
        profiles = [StreamProfile(**p) for p in payload["profiles"]]
        levels = [(int(a), int(hits)) for a, hits in payload["levels"]]
    except (KeyError, TypeError, ValueError):
        return None
    return profiles, levels


#: Bound of the memory tier, in stored walks.  A whole ``repro all``
#: session stores 110.
WALK_ENTRIES = 512

#: Bound of the first-level memo, in stored walks.  One Fig. 3 host
#: sweep walks 18 traces (three kernels on six matrices) through one
#: L1; the next host with the same L1 geometry reuses every one.
FIRST_LEVEL_ENTRIES = 48


def _identity(key: tuple, streams: list[AccessStream]) -> tuple:
    """A walk memo's key and objects: the caller's key plus each
    stream's metadata (base and stride included), and the index
    objects by identity."""
    return (key, *map(_stream_meta, streams)), [s.index for s in streams]


class WalkCache:
    """Two-tier memo of hierarchy walks, plus a first-level memo.

    Architecture sweeps re-profile identical (geometry, stream content)
    pairs — core-side variants leave the cache hierarchy untouched —
    and the walk is a pure function of both, so its result can be
    reused freely:

    * **memory tier**: a :class:`~repro.memo.IdentityLRU` of
      :data:`WALK_ENTRIES` walks, keyed by the geometry key, each
      stream's metadata (base and stride included) and its index
      object's *identity*.  It holds the indexes weakly: a hit
      requires the caller's own indexes, whose arrays are read-only
      from their first walk on, and an entry is gone once one of its
      indexes is.  Content that is built once (the
      operand memo of :mod:`repro.kernels.common`) is therefore reused
      for as long as anyone holds it, and the cache never pins a
      stream.  At the bound the least-recently-used walk is evicted
      (an eviction only costs a recompute, never correctness).
    * **disk tier** (optional, installed by the runtime beside the
      result cache): records keyed by a sha256 over the geometry key
      and each stream's base, stride and index bytes, shared across
      ProcessPool workers,
      server jobs and sessions.  A disk hit is promoted into the
      memory tier.
    * **first-level memo**: the outcome of a multi-level walk's first
      level (its miss stream included, as int32 offsets from its
      smallest line, 4 bytes a line), in a second ``IdentityLRU``
      keyed like the memory tier, so its entries are freed with their
      streams, and bounded by :data:`FIRST_LEVEL_ENTRIES`.  A level
      depends only on its own geometry and the traffic reaching it, so
      hosts that share an L1 and differ below it classify it once.  It
      never reaches the disk tier.

    Replaying a cached walk reproduces the walk's observable side
    effects (per-level counters and stats) exactly, keeping telemetry
    identical to an unmemoized run.  Lookup/store traffic is published
    under ``sim.memsys.walk_cache.*`` when telemetry is enabled, with
    the live entries of both memos as the gauges ``live_walks`` and
    ``first_level_live``.
    """

    def __init__(self) -> None:
        self._memory = IdentityLRU(WALK_ENTRIES)
        self._first_level = IdentityLRU(FIRST_LEVEL_ENTRIES)
        self.store = None  # disk tier (duck-typed: load/save)
        self.hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.evictions = 0
        self.first_level_hits = 0

    # ------------------------------------------------------------ telemetry

    def _tele(self, counter: str, n: int = 1) -> None:
        if obs.enabled():
            view = obs.active().prefixed("sim.memsys.walk_cache")
            view.counter(counter).add(n)
            lookups = self.hits + self.disk_hits + self.misses
            if lookups and counter in ("mem_hits", "disk_hits", "misses"):
                view.gauge("hit_rate").set(
                    (self.hits + self.disk_hits) / lookups)

    def _publish_live(self) -> None:
        """Set the live-entry gauges of both memos."""
        if obs.enabled():
            view = obs.active().prefixed("sim.memsys.walk_cache")
            view.gauge("live_walks").set(len(self._memory))
            view.gauge("first_level_live").set(len(self._first_level))

    # ------------------------------------------------------------- lookups

    def lookup(self, key: tuple, streams: list[AccessStream]):
        """The cached walk for ``key``/``streams``, or None.  Checks
        the memory tier (by identity), then the disk tier (content-
        addressed, so trusted by construction)."""
        value = self._memory.get(*_identity(key, streams))
        if value is not None:
            self.hits += 1
            self._tele("mem_hits")
            self._publish_live()
            return value
        if self.store is not None:
            payload, nbytes = self.store.load(_walk_digest(key, streams))
            if payload is not None:
                value = _decode_walk(payload)
                if value is not None:
                    self.disk_hits += 1
                    self._tele("disk_hits")
                    self._tele("disk_bytes_read", nbytes)
                    self._install(key, streams, value)
                    return value
        self.misses += 1
        self._tele("misses")
        self._publish_live()
        return None

    def put(self, key: tuple, streams: list[AccessStream], value) -> None:
        self._install(key, streams, value)
        self._tele("stores")
        if self.store is not None:
            nbytes = self.store.save(_walk_digest(key, streams),
                                     _encode_walk(value))
            self._tele("disk_bytes_written", nbytes)

    def _install(self, key: tuple, streams: list[AccessStream],
                 value) -> None:
        evicted = self._memory.put(*_identity(key, streams), value)
        if evicted:
            self.evictions += evicted
            self._tele("evictions", evicted)
        self._publish_live()

    def lookup_first_level(self, key: tuple, streams: list[AccessStream]):
        """The memoized first-level outcome for ``key``/``streams``, or
        None."""
        value = self._first_level.get(*_identity(key, streams))
        if value is not None:
            self.first_level_hits += 1
            self._tele("first_level_hits")
        return value

    def put_first_level(self, key: tuple, streams: list[AccessStream],
                        value) -> None:
        self._first_level.put(*_identity(key, streams), value)
        self._publish_live()

    def clear(self) -> None:
        """Drop the memory tier and the first-level memo."""
        self._memory.clear()
        self._first_level.clear()

    def __len__(self) -> int:
        """Live walks in the memory tier."""
        return len(self._memory)


_WALK_CACHE = WalkCache()


def walk_cache() -> WalkCache:
    """The process-wide walk cache (memory tier always on)."""
    return _WALK_CACHE


def configure_walk_store(store) -> None:
    """Install (or remove, with ``None``) the on-disk walk tier.  The
    runtime wires this to a ``walks/`` directory beside the result
    cache — in the driver process and in every ProcessPool worker."""
    _WALK_CACHE.store = store


#: the cache-model selection: False classifies every level with the
#: stateless stack-distance pass (:mod:`repro.sim.stackdist`), True
#: with the golden-reference :class:`~repro.sim.cache.Cache`.  The two
#: are hit/miss-identical, so the choice is no part of any key: a
#: reference walk skips both walk memos instead and always computes.
_REFERENCE = False


def configure_reference(reference: bool) -> None:
    """Select the cache model (the CLI's ``--reference`` switch).  The
    runtime installs it in-process and ships it to every ProcessPool
    worker beside the walk tier."""
    global _REFERENCE
    _REFERENCE = bool(reference)


def uses_reference() -> bool:
    """Whether walks classify with the golden-reference ``Cache``."""
    return _REFERENCE


#: line window simulated per stream (after consecutive-line dedup);
#: longer streams walk their prefix and extrapolate the hit counts.
#: Read at call time and part of every walk key, so a changed window
#: misses rather than serving a record walked under the old one.
#: ``None`` walks every stream whole.
SAMPLE_WINDOW = 100_000


def prepare_lines(stream: AccessStream, line_bytes: int
                  ) -> tuple[np.ndarray, int, float]:
    """One stream's line sequence after consecutive-line dedup and
    window sampling, plus the pre-sampling size and the extrapolation
    factor — the shared prep step of the hierarchy walk and the
    LLC-only walk.

    The lines come from the stream's index, not from its addresses: a
    :class:`~repro.sim.trace.Ranges` index with ``stride <= line_bytes``
    goes through :func:`_range_lines`, a
    :class:`~repro.sim.trace.Gather` through :func:`_gather_lines`, any
    other through :func:`_position_lines`.  The reference model
    (``--reference``) dedups the materialized addresses instead, the
    golden answer all three must reproduce bit for bit.
    """
    shift = line_shift(line_bytes)
    index = stream.index
    if _REFERENCE:
        lines = dedup_consecutive(to_lines(stream.addresses, line_bytes))
        total = lines.size
    elif isinstance(index, Ranges) and stream.stride <= line_bytes:
        lines, total = _range_lines(index, stream.base, stream.stride,
                                    shift, SAMPLE_WINDOW)
    elif isinstance(index, Gather):
        lines, total = _gather_lines(index, stream.base, stream.stride,
                                     shift, SAMPLE_WINDOW)
    else:
        if isinstance(index, Ranges):
            index = index.expand()
        lines = _position_lines(index, stream.base, stream.stride, shift)
        total = lines.size
    scale = 1.0
    if SAMPLE_WINDOW and total > SAMPLE_WINDOW:
        lines = lines[:SAMPLE_WINDOW]
        scale = total / lines.size
    return lines, total, scale


def _range_lines(ranges: Ranges, base: int, stride: int, shift: int,
                 window: int | None) -> tuple[np.ndarray, int]:
    """Deduped lines of a ranges stream whose stride is at most a line,
    and their total, with only the first ``window`` lines built.

    A step of at most a line moves to the same line or the next, so a
    non-empty range covers every line from its first to its last, once
    each after dedup.  Consecutive ranges share a line only where one
    starts on the line the previous one ended on, so the total is the
    ranges' spans less those joins.  Under :func:`_aligned_shift` the
    base's line is added to the built lines only.
    """
    starts, lengths = ranges.starts, ranges.lengths
    keep = lengths > 0
    if not keep.all():
        starts, lengths = starts[keep], lengths[keep]
    if starts.size == 0:
        return np.zeros(0, dtype=np.int64), 0
    last = starts + lengths
    last -= 1
    steps = _aligned_shift(base, stride, shift)
    if steps is not None:
        first = starts >> steps
        last >>= steps
        offset = base >> shift
    else:
        first = starts * stride
        first += base
        first >>= shift
        last *= stride
        last += base
        last >>= shift
        offset = 0
    # each range's first line after dedup, and its deduped line count
    begin = first
    begin[1:] += first[1:] == last[:-1]
    counts = last
    counts -= begin
    counts += 1
    ends = np.cumsum(counts)
    total = int(ends[-1])
    if window and total > window:
        # only the ranges that reach the window, the last one cut
        cut = int(np.searchsorted(ends, window)) + 1
        begin, counts, ends = begin[:cut], counts[:cut], ends[:cut]
        counts[-1] -= ends[-1] - window
        ends[-1] = window
    begin -= ends
    begin += counts + offset
    lines = np.repeat(begin, counts)
    lines += np.arange(lines.size, dtype=np.int64)
    return lines, total


def _aligned_shift(base: int, stride: int, shift: int) -> int | None:
    """When the base is line-aligned and the stride divides the line,
    a position's line is the base's line plus the position shifted
    right by the returned amount; otherwise None."""
    line_bytes = 1 << shift
    if base % line_bytes or line_bytes % stride:
        return None
    return shift - (stride.bit_length() - 1)


def _index_lines(positions: np.ndarray, base: int, stride: int,
                 shift: int) -> tuple[np.ndarray, int]:
    """Each position's line, and the line offset still to add to it.
    Under :func:`_aligned_shift` a position takes one shift and keeps
    its dtype, and the offset is the base's line; otherwise the lines
    are whole (int64) and the offset is 0."""
    steps = _aligned_shift(base, stride, shift)
    if steps is not None:
        return positions >> steps, base >> shift
    return (base + stride * positions.astype(np.int64)) >> shift, 0


def _dedup_lines(lines: np.ndarray, offset: int) -> np.ndarray:
    """``lines`` less each repeat of its predecessor, as int64 with
    ``offset`` added (to the deduped lines only)."""
    if lines.size:
        keep = np.empty(lines.size, dtype=bool)
        keep[0] = True
        np.not_equal(lines[1:], lines[:-1], out=keep[1:])
        lines = lines[keep]
    lines = lines.astype(np.int64, copy=False)
    if offset:
        lines += offset
    return lines


def _position_lines(positions: np.ndarray, base: int, stride: int,
                    shift: int) -> np.ndarray:
    """Deduped lines of a positions stream."""
    return _dedup_lines(*_index_lines(positions, base, stride, shift))


def _gather_lines(gather: Gather, base: int, stride: int, shift: int,
                  window: int | None) -> tuple[np.ndarray, int]:
    """Deduped lines of a gather stream, and their total, with only the
    ranges that reach the first ``window`` lines expanded.

    Each key maps to its line once, over the key array rather than the
    scan.  A non-empty range alone dedups to its first line plus one
    per line change inside it, read off a prefix count of the changes;
    it loses that first line where it starts on the line the previous
    non-empty range ended on (a join).
    """
    ranges = gather.ranges
    starts, lengths = ranges.starts, ranges.lengths
    keep = lengths > 0
    if not keep.all():
        starts, lengths = starts[keep], lengths[keep]
    if starts.size == 0:
        return np.zeros(0, dtype=np.int64), 0
    lines, offset = _index_lines(gather.values, base, stride, shift)
    changes = np.zeros(lines.size, dtype=np.int64)
    np.not_equal(lines[1:], lines[:-1], out=changes[1:])
    np.cumsum(changes, out=changes)
    last = starts + lengths
    last -= 1
    counts = changes[last]
    counts -= changes[starts]
    counts += 1
    counts[1:] -= lines[starts[1:]] == lines[last[:-1]]
    ends = np.cumsum(counts)
    total = int(ends[-1])
    if window and total > window:
        cut = int(np.searchsorted(ends, window)) + 1
        starts, lengths = starts[:cut], lengths[:cut]
    lines = lines[Ranges(starts, lengths).expand()]
    return _dedup_lines(lines, offset), total


def _walk_level(cache: Cache, lines: np.ndarray,
                counts: np.ndarray) -> np.ndarray:
    """Classify one level's traffic, ``counts[i]`` lines of it from
    stream ``i`` in stream order, from a reset cache.

    The reference model replays the whole stream through the stateful
    ``Cache.lookup_lines``.  The fast model classifies each run of
    :func:`_runs` with its own stateless stack-distance pass
    (:mod:`repro.sim.stackdist`) and settles the level's stats once, so
    the mask, stats and published telemetry are bit-identical to the
    reference walk's (``tests/test_stackdist_equiv.py`` holds the two to
    the same answers).
    """
    if lines.size == 0:
        return np.zeros(0, dtype=bool)
    if _REFERENCE:
        return cache.lookup_lines(lines)
    hits = np.zeros(lines.size, dtype=bool)
    for lo, hi in _runs(lines, counts):
        run = lines[lo:hi]
        if (run[1:] > run[:-1]).all():
            continue  # strictly increasing: every line a cold miss
        hits[lo:hi] = stackdist.hit_mask(run, cache.num_sets, cache.ways)
    settle_lookup(cache, lines.size, int(hits.sum()))
    return hits


def _runs(lines: np.ndarray, counts: np.ndarray) -> list[tuple[int, int]]:
    """The ``[lo, hi)`` line slices of a level's *runs*: the shortest
    groups of consecutive streams that share no line with another
    group.

    Streams whose ``[min, max]`` line intervals overlap, directly or
    through a chain, stay in one run, and so does every stream between
    them.  A run then holds every reuse window of its lines, so a cold
    walk of the run alone gives exactly its slice of the whole level's
    mask.  The per-stream bounds are one ``reduceat`` each, over the
    non-empty streams (an empty one joins no run).
    """
    ends = np.cumsum(counts)
    starts = ends - counts
    filled = counts > 0
    starts, ends = starts[filled], ends[filled]
    low = np.minimum.reduceat(lines, starts)
    high = np.maximum.reduceat(lines, starts)
    # reach[i]: the last stream whose interval meets stream i's, or
    # that of an earlier stream; a run ends where a stream reaches
    # only itself.
    meets = (low[:, None] <= high) & (low <= high[:, None])
    last = meets.shape[1] - 1 - np.argmax(meets[:, ::-1], axis=1)
    reach = np.maximum.accumulate(last)
    closes = np.flatnonzero(reach == np.arange(reach.size))
    opens = np.concatenate(([0], closes[:-1] + 1))
    return list(zip(starts[opens].tolist(), ends[closes].tolist()))


def sequentiality(lines: np.ndarray) -> float:
    """Fraction of accesses whose line is within +-2 lines of the
    previous access — the streams a stride/best-offset prefetcher
    covers."""
    if lines.size < 2:
        return 0.0
    deltas = np.abs(np.diff(lines))
    return float(np.mean(deltas <= 2))


def _coverage(stream: AccessStream, lines: np.ndarray,
              prefetch: bool) -> float:
    if prefetch and not stream.dependent:
        # Stride/best-offset prefetchers cover sequential streams,
        # but imperfectly: late prefetches and stream restarts leave
        # about a quarter of the latency exposed.
        return sequentiality(lines) * 0.75
    return 0.0


#: ``StreamProfile`` hit field of each level, innermost first; a walk
#: of fewer levels fills the outermost ones (the TMU reads the LLC
#: alone).
_HIT_FIELDS = ("l1_hits", "l2_hits", "llc_hits")


def _filter_level(cache: Cache, lines: np.ndarray, counts: np.ndarray):
    """One level of the walk.  ``lines`` is the traffic reaching the
    level, ``counts[i]`` of it from stream ``i`` in stream order.
    Returns the per-stream hits, the per-stream misses, and the miss
    lines passed down."""
    hit = _walk_level(cache, lines, counts)
    cum = np.zeros(lines.size + 1, dtype=np.int64)
    np.cumsum(hit, out=cum[1:])
    hits = np.diff(cum[np.cumsum(counts)], prepend=0)
    return hits, counts - hits, lines[~hit]


def _pack_misses(lines: np.ndarray) -> tuple[int, np.ndarray]:
    """A miss stream as its smallest line and the offsets from it:
    int32 when the span fits 31 bits (every stream has its own 1 GiB
    region, so a walk's span does), int64 otherwise."""
    if lines.size == 0:
        return 0, np.zeros(0, dtype=np.int32)
    low = int(lines.min())
    offsets = lines - low
    if int(offsets.max()) < 1 << 31:
        offsets = offsets.astype(np.int32)
    return low, offsets


def _first_level(cache: Cache, streams: list[AccessStream],
                 key: tuple | None, prefetch: bool):
    """Line prep plus the first level of a walk: per-stream (total,
    scale, prefetch coverage), the level's per-stream hits, and the
    per-stream misses and miss lines passed down.  Under a ``key`` the
    outcome goes through the first-level memo, which keeps the miss
    lines packed by :func:`_pack_misses` and restores them as int64; a
    reuse settles the level's stats and counters as the fresh walk
    did."""
    if key is not None:
        value = _WALK_CACHE.lookup_first_level(key, streams)
        if value is not None:
            prep, hits, misses, (low, offsets) = value
            accesses = int(hits.sum() + misses.sum())
            if accesses:
                settle_lookup(cache, accesses, int(hits.sum()))
            lines = offsets.astype(np.int64)
            lines += low
            return prep, hits, misses, lines
    prepared = [prepare_lines(s, cache.config.line_bytes) for s in streams]
    prep = [(total, scale, _coverage(s, lines, prefetch))
            for s, (lines, total, scale) in zip(streams, prepared)]
    counts = np.array([p[0].size for p in prepared], dtype=np.int64)
    lines = (np.concatenate([p[0] for p in prepared]) if prepared
             else np.zeros(0, dtype=np.int64))
    hits, misses, lines = _filter_level(cache, lines, counts)
    if key is not None:
        _WALK_CACHE.put_first_level(
            key, streams, (prep, hits, misses, _pack_misses(lines)))
    return prep, hits, misses, lines


def _walk(levels: tuple, streams: list[AccessStream], *,
          prefetch: bool) -> list[StreamProfile]:
    """Walk ``streams`` through ``levels`` (reset caches, innermost
    first), each level filtering the misses of the one above.

    Each level classifies the concatenated streams, which is exact: a
    level's state depends only on the lookups it serves, and the
    per-level access order (stream 0's lines, then stream 1's, ...) is
    the one the per-stream reference walk produces.  The fast model
    splits that concatenation into line-disjoint runs
    (:func:`_walk_level`), which changes no verdict.  Per-stream
    attribution reads a cumulative sum of each level's hit mask at the
    stream boundaries.

    Outside tracing and the reference model, the whole walk goes
    through the walk cache, keyed by each level's sets, ways and line
    size, the sample window and the prefetcher flag — latency and MSHRs
    never change a hit — plus the streams (by identity in memory, by
    content on disk), and a walk of two or more levels takes its first
    level from the first-level memo.
    """
    memo = not (_REFERENCE or obs.tracer().enabled)
    geometry = tuple((c.num_sets, c.ways, c.config.line_bytes)
                     for c in levels)
    rest = (SAMPLE_WINDOW, prefetch)
    key = (geometry, *rest)
    value = _WALK_CACHE.lookup(key, streams) if memo else None
    if value is not None:
        stored, stats = value
        for cache, (accesses, hit_count) in zip(levels, stats):
            if accesses:
                settle_lookup(cache, accesses, hit_count)
        return list(stored)

    first_key = (geometry[0], *rest) if memo and len(levels) > 1 else None
    prep, hits, counts, lines = _first_level(
        levels[0], streams, first_key, prefetch)
    level_hits = [hits]
    for cache in levels[1:]:
        hits, counts, lines = _filter_level(cache, lines, counts)
        level_hits.append(hits)
    fields = _HIT_FIELDS[-len(levels):]
    profiles = [
        StreamProfile(
            label=stream.label,
            kind=stream.kind,
            dependent=stream.dependent,
            gather=stream.gather,
            accesses=int(total * scale),
            bytes=int(stream.bytes),
            mem_accesses=int(counts[i] * scale),
            prefetch_coverage=coverage,
            **{f: int(h[i] * scale) for f, h in zip(fields, level_hits)},
        )
        for i, (stream, (total, scale, coverage))
        in enumerate(zip(streams, prep))
    ]
    if memo:
        _WALK_CACHE.put(key, streams, (
            list(profiles),
            [(c.stats.accesses, c.stats.hits) for c in levels]))
    return profiles


class MemoryHierarchy:
    """L1D → L2 → LLC slice chain for one core."""

    def __init__(self, machine: MachineConfig) -> None:
        self.machine = machine
        self.l1 = Cache(machine.l1d, name="l1")
        self.l2 = Cache(machine.l2, name="l2")
        # The LLC is shared; with all cores running the same kernel on
        # disjoint row ranges, contention is symmetric, so one core sees
        # the full LLC for its share of the data.
        self.llc = Cache(machine.llc, name="llc")

    def reset(self) -> None:
        self.l1.reset()
        self.l2.reset()
        self.llc.reset()

    def profile(self, trace: KernelTrace) -> AccessProfile:
        """Walk all streams of a kernel trace (in declaration order)."""
        self.reset()
        profile = AccessProfile(line_bytes=self.machine.l1d.line_bytes)
        with obs.timer("sim.memsys.profile"):
            profile.streams.extend(_walk(
                (self.l1, self.l2, self.llc), trace.streams, prefetch=True))
            tracer = obs.tracer()
            if tracer.enabled:
                # One span per stream in program order; the walk above
                # skipped the memos, so its cache events are in the trace.
                for sp in profile.streams:
                    start = tracer.alloc(sp.accesses)
                    tracer.span("sim.memsys", sp.label or "stream", start,
                                sp.accesses, {
                                    "accesses": sp.accesses,
                                    "l1_hits": sp.l1_hits,
                                    "mem_lines": sp.mem_accesses,
                                })
        if obs.enabled():
            view = obs.active().prefixed("sim.memsys")
            view.counter("profiles").add()
            view.counter("streams").add(len(profile.streams))
            view.counter("mem_lines").add(profile.mem_lines)
            for level, cache in (("l1", self.l1), ("l2", self.l2),
                                 ("llc", self.llc)):
                view.gauge(f"{level}.hit_rate").set(cache.stats.hit_rate)
        return profile


def llc_only_profile(machine: MachineConfig,
                     streams: list[AccessStream]) -> AccessProfile:
    """Profile streams against the LLC alone — the TMU's view of the
    hierarchy (it reads directly from the LLC, Section 5.6)."""
    llc = Cache(machine.llc, name="tmu_llc")
    profile = AccessProfile(line_bytes=machine.llc.line_bytes)
    profile.streams.extend(_walk((llc,), streams, prefetch=False))
    return profile
