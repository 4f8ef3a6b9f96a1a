"""Stack-distance microbench: offline hit_mask vs the reference Cache.

Gates the whole-stream stack-distance pass (the fast model of every
hierarchy-walk level) against driving the same streams through the
golden-reference ``Cache.lookup_lines`` from a cold start.  The mix
mirrors the traffic the walk classifies — sequential and strided
operand/output scans (the TMU's idx/vals arrays), irregular row
gathers with short consecutive runs (the dependent B-row accesses of
SpMSpM), reuse within capacity, and a uniform scatter — on a
16-way geometry.  The streams total 400k lines, short enough for the
reference's per-access Python loop.

A second gate times the walk's own small-scale geometries (a 4×4 L1,
a 4×8 L2 and a 32×16 LLC) on one SpMSpM-shaped stream
(:func:`walk_mix`): few accesses there leave through the monotone
exit or the positional screen, so it measures the row scan and the
block screen that decide the rest.  Equivalence is pinned by
``tests/test_stackdist_equiv.py``; here only the speed ratios are
gated.
"""

from __future__ import annotations

import numpy as np

from repro.config import CacheConfig
from repro.sim import stackdist
from repro.sim.cache import Cache, dedup_consecutive, to_lines

SETS, WAYS = 2048, 16
N = 80_000

#: The hierarchy walk's small-scale geometries (sets, ways).
WALK_GEOMETRIES = ((4, 4), (4, 8), (32, 16))


def _streams() -> list[np.ndarray]:
    rng = np.random.default_rng(29)
    capacity = SETS * WAYS
    starts = rng.integers(0, 50_000, N // 8) * 8
    return [
        np.arange(N),                                        # sequential
        np.arange(N) * 3 + 10_000_000,                       # strided
        (starts[:, None] + np.arange(8)[None, :]).ravel(),   # row gather
        rng.integers(0, capacity // 2, N),                   # reuse-heavy
        rng.integers(0, 4 * capacity, N),                    # scatter
    ]


def test_stackdist_vs_reference_cache(best_of, micro_baselines):
    cfg = CacheConfig(SETS * WAYS * 64, WAYS, 1, 4)
    streams = _streams()

    def run_reference() -> None:
        for lines in streams:
            Cache(cfg).lookup_lines(lines)

    def run_stackdist() -> None:
        for lines in streams:
            stackdist.hit_mask(lines, SETS, WAYS)

    reference = best_of(run_reference)
    offline = best_of(run_stackdist)
    ratio = reference / offline
    floor = micro_baselines["stackdist_lookup_min_ratio"]
    assert ratio >= floor, (
        f"stack-distance hit_mask speedup regressed: {ratio:.2f}x < "
        f"{floor}x vs the reference Cache")


def walk_mix(seed: int = 31) -> np.ndarray:
    """One line stream shaped like SpMSpM's hierarchy walk: the
    streams' lines concatenated stream after stream, as one walk level
    classifies them.  Gustavson's row-wise product scans A's indexes
    and values, gathers the B row each A nonzero names (indexes and
    values: short runs of consecutive lines at scattered rows), updates
    a dense accumulator at B's columns, and scans the output."""
    rng = np.random.default_rng(seed)
    rows, per_row = 1500, 6
    a_cols = rng.integers(0, rows, rows * per_row)
    b_len = rng.integers(1, 2 * per_row, rows)
    b_ptr = np.concatenate([[0], np.cumsum(b_len)])
    b_cols = rng.integers(0, rows, int(b_ptr[-1]))
    starts = b_ptr[a_cols]
    lens = b_len[a_cols]
    pos = np.repeat(starts - np.cumsum(lens) + lens, lens) + \
        np.arange(int(lens.sum()))
    out = np.arange(pos.size // 2)
    addresses = [
        (0x100000, 4, np.arange(a_cols.size)),   # A idxs
        (0x200000, 8, np.arange(a_cols.size)),   # A vals
        (0x300000, 4, pos),                      # B idxs, row gathers
        (0x400000, 8, pos),                      # B vals, row gathers
        (0x500000, 8, b_cols[pos]),              # accumulator
        (0x600000, 4, out),                      # Z idxs
        (0x700000, 8, out),                      # Z vals
    ]
    return np.concatenate([
        dedup_consecutive(to_lines(base + elem * idx))
        for base, elem, idx in addresses])


def test_stackdist_vs_reference_cache_on_walk_geometries(
        best_of, micro_baselines):
    lines = walk_mix()

    def run_reference() -> None:
        for sets, ways in WALK_GEOMETRIES:
            Cache(CacheConfig(sets * ways * 64, ways, 1, 4)).lookup_lines(
                lines)

    def run_stackdist() -> None:
        for sets, ways in WALK_GEOMETRIES:
            stackdist.hit_mask(lines, sets, ways)

    reference = best_of(run_reference)
    offline = best_of(run_stackdist)
    ratio = reference / offline
    floor = micro_baselines["stackdist_walk_min_ratio"]
    assert ratio >= floor, (
        f"stack-distance hit_mask speedup on the walk geometries "
        f"regressed: {ratio:.2f}x < {floor}x vs the reference Cache")
