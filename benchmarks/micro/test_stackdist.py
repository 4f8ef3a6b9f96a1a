"""Stack-distance microbench: offline hit_mask vs the reference Cache.

Gates the whole-stream stack-distance pass (the fast model of every
hierarchy-walk level) against driving the same streams through the
golden-reference ``Cache.lookup_lines`` from a cold start.  The mix
mirrors the traffic the walk classifies — sequential and strided
operand/output scans (the TMU's idx/vals arrays), irregular row
gathers with short consecutive runs (the dependent B-row accesses of
SpMSpM), reuse within capacity, and a uniform scatter — on a
16-way geometry.  The streams total 400k lines, short enough for the
reference's per-access Python loop.  Equivalence is pinned by
``tests/test_stackdist_equiv.py``; here only the speed ratio is gated.
"""

from __future__ import annotations

import numpy as np

from repro.config import CacheConfig
from repro.sim import stackdist
from repro.sim.cache import Cache

SETS, WAYS = 2048, 16
N = 80_000


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
