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
   pack fits 31 bits) and links each access to the previous occurrence
   of its line (``f``) with a second, read off that sort's own keys.
   The second sort packs each line *relative to the stream's smallest*
   (bound: the span plus one), so its width follows the lines the
   stream covers, not where its region lies: a one-array scan of a few
   thousand lines packs into int32 beside 17 position bits.  The
   hierarchy walk hands each line-disjoint run of streams over on its
   own (:func:`repro.sim.memsys._runs`), which keeps spans small;
3. screens: ``f < 0`` is a cold-start miss; a positional reuse
   distance ``k - f[k] <= ways`` is a definite hit;
4. decides every other window ``(p, k)``, ``p = f[k]``, with a *row
   scan*: its distinct-line count is ``#{p < j < k : f[j] < p}`` (j
   brings a line new to the window iff its previous occurrence lies
   before the window; none lies at ``p``, whose next occurrence is
   ``k``), counted over contiguous rows of ``2B`` entries of ``f``
   ending at ``k - 1`` — a sliding-window view, one gather per row, no
   per-element index arithmetic.  ``B`` is the block size of step 5
   (8, 16 and 32 for 4, 8 and 16 ways).  A row that reaches past ``p``
   needs no mask: every ``j <= p`` has ``f[j] < j <= p`` and so counts
   too, a known surplus, and ``2B`` int32-min sentinels before the
   stream stand in for positions before 0.  A window with
   ``k - p <= 2B`` is decided by its one row;
5. screens wider windows first through a *block distinct-count
   table*: the packed stream is cut into ``B``-sized blocks, each
   block's exact distinct-line count is one vectorized reduction
   (``f[j] < block_start``), and a window that fully contains a block
   with ``>= ways`` distinct lines is a certain miss, O(1) per query
   off a block-level prefix sum.  The survivors take the row scan in
   steps of ``2B`` back from ``k``; the rare duplicate-heavy window
   still open after ``_MAX_STEPS`` rows falls back to an exact count.

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
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import SimulationError
from ..types import stable_order, stable_runs

#: Row-scan cells (queries x row width) per batch.  A batch gathers a
#: 1 MiB int32 row matrix, cache-resident on multi-million-access
#: streams; each batch is a pure function of ``f``, so batching cannot
#: change a verdict.
_BATCH_CELLS = 1 << 18

#: Rows a wide window's scan reads before its exact fallback.
_MAX_STEPS = 8

#: Byte-lane summing constant of :func:`_row_counts`.
_BYTE_SUM = np.uint64(0x0101010101010101)


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
    # Group by set, program order within each set segment, with the
    # lines taken relative to the smallest: the link sort's keys then
    # span the stream's lines, not their ids, so a stream that covers
    # few lines packs into int32 wherever its region lies.
    low = int(lines.min())
    span = int(lines.max()) - low
    order = stable_order(lines & (num_sets - 1), num_sets)
    pv = lines[order]
    pv -= low

    # Previous occurrence of the same line (same line ⇒ same set, so
    # the links never leave a set segment), behind the row scan's
    # ``width`` int32-min sentinels.
    o2, same = stable_runs(pv, span + 1)
    lb = max(3, (2 * ways - 1).bit_length())
    width = 2 << lb
    padded = np.empty(width + n, dtype=np.int32)
    padded[:width] = np.iinfo(np.int32).min
    f = padded[width:]
    f[o2[0]] = -1
    f[o2[1:]] = np.where(same, o2[:-1], -1)

    # Screens: cold-start miss / positional-reuse hit.  A window of
    # ``gap - 1 <= ways - 1`` packed positions cannot reach ``ways``
    # distinct lines, whatever it contains.
    gap = np.arange(n, dtype=np.int32) - f
    seen = f >= 0
    hit_packed = seen & (gap <= ways)
    q = np.flatnonzero(seen & (gap > ways)).astype(np.int32)
    if q.size:
        wide = gap[q] > width
        if wide.any():
            q = np.concatenate([q[~wide],
                                _block_screen(f, q[wide], ways, lb)])
        hit_packed[q] = _row_scan(padded, q, ways, width)

    hits = np.empty(n, dtype=bool)
    hits[order] = hit_packed
    return hits


def _row_counts(mask: np.ndarray) -> np.ndarray:
    """Per-row true counts of a C-contiguous bool matrix whose rows
    are a multiple of 8 entries.  Each row is read as 64-bit words of
    0/1 bytes: adding words sums their byte lanes without carries, and
    one multiply by ``0x0101..01`` sums the lanes into the top byte.
    That byte holds at most 255, so a row is summed 31 words (248
    entries) at a time: in one go for every geometry up to 32 ways."""
    words = mask.view(np.uint64)
    total = np.zeros(words.shape[0], dtype=np.int32)
    for lo in range(0, words.shape[1], 31):
        acc = words[:, lo].copy()
        for i in range(lo + 1, min(lo + 31, words.shape[1])):
            acc += words[:, i]
        acc *= _BYTE_SUM
        acc >>= np.uint64(56)
        total += acc.astype(np.int32)
    return total


def _row_scan(padded, q, ways, width):
    """Exact hit/miss of the windows ending at ``q``, read from rows of
    ``width`` (``2B``) entries of ``f``: the row ending at position
    ``e - 1`` is row ``e`` of a sliding-window view over ``padded``,
    which is ``f`` behind ``width`` int32-min sentinels."""
    f = padded[width:]
    rows = sliding_window_view(padded, width)
    verdict = np.empty(q.size, dtype=bool)
    batch = max(1, _BATCH_CELLS // width)
    for lo in range(0, q.size, batch):
        verdict[lo:lo + batch] = _scan_batch(
            rows, f, q[lo:lo + batch], ways, width)
    return verdict


def _scan_batch(rows, f, k, ways, width):
    """Row scan of one batch of windows ``(p, k)``, stepping back one
    row at a time.  ``count`` sums ``f[j] < p`` over the rows read and
    ``left`` is the number of window positions not yet read.  While
    ``left > 0`` the rows lie inside the window, so ``count`` is a
    lower bound of its distinct count: ``>= ways`` is a certain miss.
    Once ``left <= 0`` the rows cover the window plus ``-left``
    positions ``j <= p``, all counted, so ``count + left`` is exact."""
    p = f[k]
    verdict = np.zeros(k.size, dtype=bool)
    alive = np.arange(k.size)
    end, pa, left = k, p, k - p - 1
    count = np.zeros(k.size, dtype=np.int32)
    for _ in range(_MAX_STEPS):
        if not alive.size:
            break
        count += _row_counts(rows[end] < pa[:, None])
        left -= width
        done = left <= 0
        verdict[alive[done]] = (count + left)[done] < ways
        keep = ~done & (count < ways)
        alive = alive[keep]
        end, pa = end[keep] - width, pa[keep]
        count, left = count[keep], left[keep]
    for i in alive:  # duplicate-heavy windows still open: exact count
        verdict[i] = np.count_nonzero(f[p[i] + 1:k[i]] < p[i]) < ways
    return verdict


def _block_screen(f, q, ways, lb):
    """Drop the wide windows (``k - p > 2B``) that are certain misses;
    returns the rest for the row scan.

    The packed stream is cut into blocks of ``B = 2^lb`` positions
    (the smallest power of two holding ``2 * ways`` accesses, so a
    single block *can* certify a miss).  ``bd[b]`` is block ``b``'s
    exact distinct-line count: position ``j`` introduces a new line to
    its block iff its previous occurrence lies before the block
    (``f[j] < block_start``; cold starts with ``f = -1`` included).
    Blocks never mix information across sets in a way a query can
    observe: a window ``(p, k)`` never crosses its set segment, so any
    block it fully contains lies inside that segment too.

    The blocks ``p // B + 1 .. k // B - 1`` are exactly the ones the
    window fully contains, and a window wider than ``2B`` contains at
    least one.  If any of them alone holds ``>= ways`` distinct lines,
    so does the window: a miss, read off a prefix sum over blocks.
    What stays is windows whose lines spread across blocks or repeat
    within them; the row scan decides them, most in its first row.
    """
    block = 1 << lb
    nfull = f.size >> lb
    starts = np.arange(0, nfull << lb, block, dtype=np.int32)
    bd = _row_counts(f[:nfull << lb].reshape(nfull, block)
                     < starts[:, None])
    cbad = np.zeros(nfull + 1, dtype=np.int32)
    np.cumsum(bd >= ways, out=cbad[1:])
    miss = cbad[q >> lb] > cbad[(f[q] >> lb) + 1]
    return q[~miss]
