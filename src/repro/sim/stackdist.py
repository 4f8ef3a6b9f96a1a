"""Exact offline stack-distance model for set-associative LRU caches.

:func:`hit_mask` classifies a *whole* line stream against a cold
cache in one stateless NumPy pass — no tag matrix, no occupancy
vector, no batch chunking.  It exploits the classic stack-distance
theorem: under install-on-miss LRU, an access hits iff its line was
seen before and the number of *distinct* lines of the same set touched
since the previous occurrence is ``< ways``.  Because the whole stream
is visible at once, the model needs none of a stateful batch model's
machinery (prologue replay of resident lines, per-chunk packed sorts,
tag-matrix rebuild).

The pass:

1. takes an all-cold-miss early exit for strictly monotonic streams
   (sequential scans, marshaled operand/output streams touch every
   line exactly once);
2. groups accesses by set with one stable packed sort (int32 when the
   pack fits 31 bits) and computes previous/next-occurrence links
   (``f``/``nxt``) with a second;
3. screens: ``f < 0`` is a cold-start miss; a positional reuse
   distance ``k - f[k] <= ways`` is a definite hit;
4. retires the survivors through a *block distinct-count table*: the
   packed stream is cut into fixed ``B``-sized blocks and each block's
   exact distinct-line count is one vectorized reduction
   (``f[j] < block_start`` marks j's line as new within the block).
   Any window that fully contains a block with ``>= ways`` distinct
   lines is a certain miss, and the summed block counts plus the raw
   boundary widths upper-bound the window's distinct count for a
   certain hit — both O(1) per query off two block-level prefix sums;
5. resolves the remainder (narrow windows shorter than two blocks,
   and rare duplicate-heavy wide windows whose bounds stay ambiguous)
   with a lockstep bounded backward scan (:func:`_resolve`), straggler
   fallback included, in bounded-size chunks.

Every path is exact, so the mask is bit-identical to the reference
:class:`~repro.sim.cache.Cache` from a cold start —
``tests/test_stackdist_equiv.py`` fuzzes the two against each other.
The hierarchy walk in :mod:`repro.sim.memsys` resets every level
before profiling, so its batched walks are cold-start by construction
and route here unless the run selects the reference model
(:func:`repro.sim.memsys.configure_reference`).
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from ..types import stable_order

#: Queries per lockstep-scan batch.  The scan materializes
#: ``queries x block`` work matrices; bounding the batch keeps them
#: cache-resident instead of page-fault-bound on multi-million-access
#: streams.  Each batch is an independent pure function of the shared
#: ``f``/``nxt`` links, so chunking cannot change any verdict.
_SCAN_CHUNK = 1 << 16


def _resolve(f, nxt, q, ways):
    """Exact hit/miss for accesses the screens could not decide.

    Lockstep backward block scan over all queries at once: walk a
    cursor from ``k-1`` down in blocks of ``B`` positions, counting
    positions whose line does not recur before ``k`` (``nxt[j] > k``
    ⇔ a distinct line of the window).  A query retires as a miss
    when the count reaches ``ways`` and as a hit when the scan
    exhausts the window (reaches the previous occurrence) first.
    Real streams retire within a block or two; the rare straggler
    (duplicate-heavy long windows) falls back to an exact
    first-in-window count, one vectorized reduction per query.
    """
    block = int(min(48, max(8, 2 * ways)))
    max_blocks = 1 + (8 * ways + 64) // block
    offs = np.arange(block, dtype=np.int32)
    p = f[q]
    c = q - 1
    cnt = np.zeros(q.size, dtype=np.int32)
    verdict = np.zeros(q.size, dtype=bool)
    alive = np.arange(q.size)
    qa, pa, ca, cna = q, p, c, cnt
    for _ in range(max_blocks):
        if not alive.size:
            break
        win = ca[:, None] - offs[None, :]
        valid = win > pa[:, None]
        dist = (nxt[np.maximum(win, 0)] > qa[:, None]) & valid
        totals = cna + dist.sum(axis=1, dtype=np.int32)
        # A miss is decided as soon as the running count reaches
        # `ways`; counts only accrue inside the window, so the block
        # total is exact for deciding both outcomes below.
        missed = totals >= ways
        exhausted = ~valid[:, -1]
        retired = missed | exhausted
        verdict[alive[exhausted & ~missed]] = True
        keep = ~retired
        alive = alive[keep]
        qa, pa, cna = qa[keep], pa[keep], totals[keep]
        ca = ca[keep] - block
    for i in alive:  # stragglers: count first-in-window occurrences
        verdict[i] = int(
            np.count_nonzero(f[p[i] + 1:q[i]] <= p[i])) < ways
    return verdict


def _scan(f, nxt, q, ways):
    if q.size <= _SCAN_CHUNK:
        return _resolve(f, nxt, q, ways)
    out = np.empty(q.size, dtype=bool)
    for lo in range(0, q.size, _SCAN_CHUNK):
        part = q[lo:lo + _SCAN_CHUNK]
        out[lo:lo + part.size] = _resolve(f, nxt, part, ways)
    return out


def hit_mask(lines: np.ndarray, num_sets: int, ways: int) -> np.ndarray:
    """Boolean hit mask of ``lines`` against a cold ``num_sets`` ×
    ``ways`` LRU cache — bit-identical to replaying the stream through
    the reference :class:`~repro.sim.cache.Cache`."""
    if num_sets & (num_sets - 1):
        raise SimulationError("cache set count must be a power of two")
    lines = np.asarray(lines, dtype=np.int64)
    n = lines.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    if n > 1:
        # Strictly monotonic streams (sequential scans, marshaled
        # operand/output streams) touch every line exactly once: from a
        # cold cache every access misses.  Only a *stateless* model can
        # take this exit — with carried state an earlier batch could
        # have installed any of these lines.  The short prefix probe
        # skips the full-stream diff on clearly irregular inputs.
        head = lines[:4097]
        dh = np.diff(head)
        if (dh > 0).all() or (dh < 0).all():
            d = np.diff(lines)
            if (d > 0).all() or (d < 0).all():
                return np.zeros(n, dtype=bool)
    # Group by set, program order within each set segment.
    order = stable_order(lines & (num_sets - 1), num_sets)
    pv = lines[order]

    # Previous/next occurrence of the same line (same line ⇒ same set,
    # so the links never leave a set segment).
    o2 = stable_order(pv, int(pv.max()) + 1)
    sv = pv[o2]
    same = sv[1:] == sv[:-1]
    prev_idx = o2[:-1][same]
    next_idx = o2[1:][same]
    f = np.full(n, -1, dtype=np.int32)
    f[next_idx] = prev_idx

    # Screens: cold-start miss / positional-reuse hit.  A window of
    # ``gap - 1 <= ways - 1`` packed positions cannot reach ``ways``
    # distinct lines, whatever it contains.
    pos32 = np.arange(n, dtype=np.int32)
    gap = pos32 - f
    seen = f >= 0
    hit_packed = seen & (gap <= ways)
    q = np.flatnonzero(seen & (gap > ways)).astype(np.int32)

    if q.size:
        q = _block_screen(f, pos32, hit_packed, q, ways, n)
    if q.size:
        nxt = np.full(n, n, dtype=np.int32)
        nxt[prev_idx] = next_idx
        hit_packed[q] = _scan(f, nxt, q, ways)

    hits = np.empty(n, dtype=bool)
    hits[order] = hit_packed
    return hits


def _block_screen(f, pos32, hit_packed, q, ways, n):
    """Retire queries through the block distinct-count table; returns
    the remainder for the lockstep scan.

    The packed stream is cut into blocks of ``B = 2^lb`` positions
    (the smallest power of two holding ``2 * ways`` accesses, so a
    single block *can* certify a miss).  ``bd[b]`` is block ``b``'s
    exact distinct-line count: position ``j`` introduces a new line to
    its block iff its previous occurrence lies before the block
    (``f[j] < block_start``; cold starts with ``f = -1`` included).
    Blocks never mix information across sets in a way a query can
    observe: a window ``(p, k)`` never crosses its set segment, so any
    block it fully contains lies inside that segment too.

    For a query window ``(p, k)``, the blocks ``bp1 .. bk-1`` are
    exactly the fully-contained ones, giving two O(1) verdicts off
    prefix sums over blocks:

    * ``miss``  — some contained block alone holds ``>= ways``
      distinct lines (window distinct count can only be larger);
    * ``hit``   — the *sum* of contained block counts plus the raw
      widths of the two boundary fragments stays ``< ways`` (the sum
      double-counts lines recurring across blocks and the fragments
      are counted undeduplicated, so it upper-bounds the window's
      distinct count).

    The survivors are narrow windows (no fully-contained block) and
    duplicate-heavy wide windows sitting between the two bounds; both
    retire in the bounded lockstep scan, whose cost is proportional to
    exactly the ambiguity the table could not remove.
    """
    lb = max(3, (2 * ways - 1).bit_length())
    nfull = n >> lb
    if nfull < 2:
        return q
    B = 1 << lb
    first_in_blk = f < (pos32 & np.int32(~(B - 1)))
    bd = first_in_blk[:nfull << lb].reshape(nfull, B).sum(
        axis=1, dtype=np.int32)
    cbad = np.zeros(nfull + 1, dtype=np.int32)
    np.cumsum(bd >= ways, out=cbad[1:])
    cgood = np.zeros(nfull + 1, dtype=np.int32)
    np.cumsum(bd, out=cgood[1:])

    p = f[q]
    bp1 = np.minimum((p >> lb) + 1, nfull)  # first candidate block
    bk = np.minimum(q >> lb, nfull)         # first block past the last
    contained = bk > bp1
    miss = contained & (cbad[bk] - cbad[bp1] > 0)
    interior = np.where(contained, cgood[bk] - cgood[bp1], 0)
    left = np.where(contained, (bp1 << lb) - 1 - p, q - 1 - p)
    right = np.maximum(np.where(contained, q - (bk << lb), 0), 0)
    hit = ~miss & (interior + left + right < ways)
    hit_packed[q[hit]] = True
    return q[~miss & ~hit]
