"""Cache model tests, including LRU property checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig
from repro.errors import SimulationError
from repro.sim.cache import Cache, dedup_consecutive, to_lines


def tiny_cache(sets=2, ways=2):
    return Cache(CacheConfig(sets * ways * 64, ways, 1, 4))


class TestBasics:
    def test_cold_misses_then_hits(self):
        c = tiny_cache()
        first = c.lookup_lines(np.array([0, 1, 2, 3]))
        assert not first.any()
        second = c.lookup_lines(np.array([0, 1, 2, 3]))
        assert second.all()

    def test_capacity_eviction_lru(self):
        c = tiny_cache(sets=1, ways=2)
        # lines 0, 2, 4 map to the same (only) set
        c.lookup_lines(np.array([0, 2]))
        c.lookup_lines(np.array([4]))       # evicts 0 (LRU)
        hits = c.lookup_lines(np.array([2, 4, 0]))
        assert hits.tolist() == [True, True, False]

    def test_recency_update_on_hit(self):
        c = tiny_cache(sets=1, ways=2)
        c.lookup_lines(np.array([0, 2]))
        c.lookup_lines(np.array([0]))       # 0 becomes MRU
        c.lookup_lines(np.array([4]))       # evicts 2
        hits = c.lookup_lines(np.array([0, 2]))
        assert hits.tolist() == [True, False]

    def test_stats_accumulate(self):
        c = tiny_cache()
        c.lookup_lines(np.array([0, 0, 1]))
        assert c.stats.accesses == 3
        assert c.stats.hits == 1
        assert c.stats.hit_rate == pytest.approx(1 / 3)

    def test_reset(self):
        c = tiny_cache()
        c.lookup_lines(np.array([0]))
        c.reset()
        assert c.stats.accesses == 0
        assert not c.lookup_lines(np.array([0])).any()

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(SimulationError):
            Cache(CacheConfig(3 * 64, 1, 1, 1))


class TestHelpers:
    def test_to_lines(self):
        addrs = np.array([0, 63, 64, 128])
        assert to_lines(addrs, 64).tolist() == [0, 0, 1, 2]

    def test_to_lines_rejects_non_power_of_two(self):
        with pytest.raises(SimulationError):
            to_lines(np.array([0]), 48)

    def test_dedup_consecutive(self):
        lines = np.array([5, 5, 5, 6, 5, 5])
        assert dedup_consecutive(lines).tolist() == [5, 6, 5]

    def test_dedup_empty(self):
        assert dedup_consecutive(np.zeros(0, dtype=np.int64)).size == 0


class TestProperties:
    @given(st.lists(st.integers(0, 63), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_working_set_within_capacity_always_hits_on_repeat(self,
                                                               lines):
        """Any access sequence over at most `ways` distinct lines per
        set fully hits on the second pass (LRU never evicts a line that
        still fits)."""
        c = Cache(CacheConfig(64 * 64, 64, 1, 4))  # fully assoc. 64 ways
        distinct = sorted(set(lines))
        if len(distinct) > 64:
            return
        arr = np.asarray(lines)
        c.lookup_lines(arr)
        assert c.lookup_lines(arr[::-1].copy()).all()

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_hits_never_exceed_accesses(self, lines):
        c = tiny_cache(sets=4, ways=2)
        c.lookup_lines(np.asarray(lines))
        assert 0 <= c.stats.hits <= c.stats.accesses

    @given(st.lists(st.integers(0, 30), min_size=2, max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_immediate_repeat_always_hits(self, lines):
        c = tiny_cache(sets=4, ways=2)
        arr = np.repeat(np.asarray(lines), 2)  # every line twice in a row
        hits = c.lookup_lines(arr)
        assert hits[1::2].all()
