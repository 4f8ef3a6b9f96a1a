"""Configuration, scaling and shared-type tests."""

import pytest

from repro.config import (
    CACHE_SCALE_DIVISOR,
    CacheConfig,
    a64fx_like,
    default_machine,
    experiment_machine,
    graviton3_like,
    scale_caches,
)
from repro.errors import SimulationError
from repro.types import as_index_array, as_value_array, geomean


class TestMachineConfig:
    def test_table5_defaults(self):
        m = default_machine()
        assert m.num_cores == 8
        assert m.core.rob_entries == 224
        assert m.core.vector_bits == 512
        assert m.l1d.size_bytes == 64 * 1024 and m.l1d.mshrs == 32
        assert m.l2.size_bytes == 512 * 1024 and m.l2.mshrs == 64
        assert m.llc.size_bytes == 8 * 1024 * 1024 and m.llc.mshrs == 128
        assert m.memory.total_gbps == 150.0
        assert m.tmu.lanes == 8
        assert m.tmu.per_lane_storage_bytes == 2048
        assert m.tmu.outstanding_requests == 128

    def test_bandwidth_helpers(self):
        m = default_machine()
        assert m.bytes_per_cycle() == pytest.approx(150.0 / 2.4)
        assert m.bytes_per_cycle_per_core() == pytest.approx(
            150.0 / 2.4 / 8)

    def test_memory_latency_composition(self):
        m = default_machine()
        lat = m.memory_latency_cycles()
        assert lat > m.memory.latency_cycles
        assert lat > m.llc.latency

    def test_with_helpers_do_not_mutate(self):
        m = default_machine()
        m2 = m.with_tmu(lanes=4)
        m3 = m.with_core(vector_bits=128)
        assert m.tmu.lanes == 8 and m2.tmu.lanes == 4
        assert m.core.vector_bits == 512 and m3.core.vector_bits == 128

    def test_cache_set_count(self):
        c = CacheConfig(64 * 1024, 4, 2, 32)
        assert c.num_sets == 256

    def test_cache_alignment_validation(self):
        with pytest.raises(SimulationError):
            CacheConfig(1000, 3, 1, 1)


class TestScaling:
    def test_divisors_match_suite(self):
        from repro.generators.suite import _SCALE_DIVISOR

        assert CACHE_SCALE_DIVISOR == _SCALE_DIVISOR

    def test_paper_scale_is_identity(self):
        assert experiment_machine("paper").llc.size_bytes == (
            default_machine().llc.size_bytes)

    def test_small_scale_shrinks_caches(self):
        m = experiment_machine("small")
        full = default_machine()
        assert m.llc.size_bytes < full.llc.size_bytes
        assert m.l1d.size_bytes < full.l1d.size_bytes
        # latencies and MSHRs are untouched
        assert m.llc.latency == full.llc.latency
        assert m.l1d.mshrs == full.l1d.mshrs

    def test_floor_keeps_caches_usable(self):
        m = scale_caches(default_machine(), 10**9)
        assert m.l1d.num_sets >= 4
        assert m.llc.num_sets >= 4

    def test_power_of_two_sets_preserved(self):
        m = scale_caches(default_machine(), 3)
        for cache in (m.l1d, m.l2, m.llc):
            assert cache.num_sets & (cache.num_sets - 1) == 0

    def test_invalid_divisor(self):
        with pytest.raises(SimulationError):
            scale_caches(default_machine(), 0)

    def test_unknown_scale(self):
        with pytest.raises(SimulationError):
            experiment_machine("huge")


class TestHostPresets:
    def test_a64fx_contrasts(self):
        a64, g3 = a64fx_like(), graviton3_like()
        # more bandwidth per core on the A64FX-like host
        assert (a64.memory.total_gbps / a64.num_cores
                > g3.memory.total_gbps / g3.num_cores)
        # bigger OoO resources on the Graviton-like host
        assert g3.core.rob_entries > a64.core.rob_entries
        assert g3.llc.size_bytes > a64.llc.size_bytes

    def test_noc_average_hops(self):
        m = default_machine()
        assert m.noc.average_hops() == pytest.approx(2.5)


class TestCacheModelSelection:
    def test_selection_leaves_every_machine_unchanged(self):
        """The CLI's --fast/--reference switch selects the cache model
        in ``sim.memsys``; no machine factory snapshots the choice, so
        every machine (and so every content hash) is the same under
        both models."""
        from repro.config import experiment_machine
        from repro.sim.memsys import configure_reference, uses_reference

        factories = (default_machine, a64fx_like, graviton3_like,
                     lambda: experiment_machine("small"))
        fast = [factory() for factory in factories]
        try:
            configure_reference(True)
            assert uses_reference()
            assert [factory() for factory in factories] == fast
        finally:
            configure_reference(False)
        assert not uses_reference()


class TestSharedTypes:
    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([5.0]) == pytest.approx(5.0)

    def test_geomean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_geomean_empty_is_nan(self):
        import math

        assert math.isnan(geomean([]))

    def test_array_helpers(self):
        idx = as_index_array([1, 2, 3])
        val = as_value_array([1, 2, 3])
        assert idx.dtype.kind == "i" and idx.flags["C_CONTIGUOUS"]
        assert val.dtype.kind == "f"
