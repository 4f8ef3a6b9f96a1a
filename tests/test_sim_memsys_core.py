"""Memory hierarchy and interval core model tests."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim import memsys
from repro.sim.core import CycleBreakdown, IntervalCoreModel
from repro.sim.memsys import (
    MemoryHierarchy,
    llc_only_profile,
    sequentiality,
)
from repro.sim.trace import (
    AccessStream,
    AddressSpace,
    KernelTrace,
    indexed_addresses,
    interleave,
    strided_addresses,
)


class TestTraceHelpers:
    def test_address_space_disjoint(self):
        space = AddressSpace()
        a = space.place(100)
        b = space.place(100)
        assert a != b and abs(a - b) >= 100

    def test_big_allocation_spans_regions(self):
        space = AddressSpace()
        a = space.place(3 << 30)
        b = space.place(8)
        assert b - a >= 3 << 30

    def test_strided_and_indexed(self):
        assert strided_addresses(100, 3, 8).tolist() == [100, 108, 116]
        assert indexed_addresses(0, [2, 0], 4).tolist() == [8, 0]

    def test_interleave(self):
        a = np.array([1, 3])
        b = np.array([2, 4])
        assert interleave(a, b).tolist() == [1, 2, 3, 4]

    def test_interleave_length_check(self):
        with pytest.raises(SimulationError):
            interleave(np.array([1]), np.array([1, 2]))

    def test_stream_validation(self):
        with pytest.raises(SimulationError):
            AccessStream(np.array([0]), 8, kind="modify")
        with pytest.raises(SimulationError):
            AccessStream(np.array([0]), 0)

    def test_trace_totals(self):
        trace = KernelTrace("t", scalar_ops=10, vector_ops=5, loads=3,
                            stores=2, branches=1)
        assert trace.total_instructions() == 21

    def test_arithmetic_intensity(self):
        trace = KernelTrace("t", flops=100.0, streams=[
            AccessStream(np.zeros(10, dtype=np.int64), 8)])
        assert trace.arithmetic_intensity() == pytest.approx(100 / 80)


class TestHierarchy:
    def test_sequential_stream_mostly_hits_l1(self, small_machine):
        h = MemoryHierarchy(small_machine)
        stream = AccessStream(strided_addresses(1 << 30, 1000, 8), 8,
                              "read", "seq")
        profile = h.profile(KernelTrace("t", streams=[stream]))
        s = profile.streams[0]
        # 8 elements per line -> ~7/8 of deduped accesses hit nothing
        # (consecutive same-line collapse), all lines are cold misses
        assert s.mem_accesses > 0
        assert s.prefetch_coverage > 0.5  # sequential: covered

    def test_random_stream_misses_small_cache(self, small_machine):
        rng = np.random.default_rng(0)
        addrs = indexed_addresses(1 << 30, rng.integers(0, 1 << 20, 5000),
                                  8)
        h = MemoryHierarchy(small_machine)
        profile = h.profile(KernelTrace("t", streams=[
            AccessStream(addrs, 8, "read", "rand", dependent=True)]))
        s = profile.streams[0]
        assert s.mem_accesses > 0.8 * s.accesses
        assert s.prefetch_coverage == 0.0  # dependent: not covered

    def test_sampling_extrapolates(self, small_machine, monkeypatch):
        addrs = strided_addresses(1 << 30, 200_000, 8)
        monkeypatch.setattr(memsys, "SAMPLE_WINDOW", None)
        full = MemoryHierarchy(small_machine).profile(
            KernelTrace("t", streams=[AccessStream(addrs, 8)]))
        monkeypatch.setattr(memsys, "SAMPLE_WINDOW", 5_000)
        sampled = MemoryHierarchy(small_machine).profile(
            KernelTrace("t", streams=[AccessStream(addrs, 8)]))
        assert sampled.mem_lines == pytest.approx(full.mem_lines,
                                                  rel=0.05)

    def test_llc_only_profile(self, small_machine):
        addrs = strided_addresses(1 << 30, 1000, 8)
        profile = llc_only_profile(small_machine,
                                   [AccessStream(addrs, 8)])
        s = profile.streams[0]
        assert s.l1_hits == 0 and s.l2_hits == 0

    def test_sequentiality_metric(self):
        assert sequentiality(np.arange(100)) == 1.0
        assert sequentiality(np.arange(100) * 50) == 0.0
        assert sequentiality(np.array([1])) == 0.0

    def test_sequentiality_edge_cases(self):
        # empty and single-access streams have no deltas to measure
        assert sequentiality(np.zeros(0, dtype=np.int64)) == 0.0
        assert sequentiality(np.array([42])) == 0.0
        # backwards and small-stride streams still count as sequential
        assert sequentiality(np.arange(100)[::-1]) == 1.0
        assert sequentiality(np.arange(0, 200, 2)) == 1.0
        # exactly at the +-2 line threshold vs just beyond it
        assert sequentiality(np.array([0, 2, 4])) == 1.0
        assert sequentiality(np.array([0, 3, 6])) == 0.0

    def test_average_load_latency_empty_profile(self, small_machine):
        from repro.sim.memsys import AccessProfile, StreamProfile

        # no streams at all -> no loads -> zero, not a division error
        assert AccessProfile().average_load_latency(small_machine) == 0.0
        # write-only and zero-access streams are excluded the same way
        profile = AccessProfile(streams=[
            StreamProfile(label="w", kind="write", dependent=False,
                          accesses=100, mem_accesses=100),
            StreamProfile(label="r0", kind="read", dependent=False,
                          accesses=0),
        ])
        assert profile.average_load_latency(small_machine) == 0.0

    def test_average_load_latency_single_access(self, small_machine):
        from repro.sim.memsys import AccessProfile, StreamProfile

        # one L1-hitting load: the mean is exactly the L1 latency
        profile = AccessProfile(streams=[
            StreamProfile(label="r", kind="read", dependent=False,
                          accesses=1, l1_hits=1)])
        assert profile.average_load_latency(small_machine) == (
            pytest.approx(small_machine.l1d.latency))
        # one cold miss: the mean is the full memory latency
        profile = AccessProfile(streams=[
            StreamProfile(label="r", kind="read", dependent=False,
                          accesses=1, mem_accesses=1)])
        assert profile.average_load_latency(small_machine) == (
            pytest.approx(small_machine.memory_latency_cycles()))

    def test_average_load_latency_full_prefetch_coverage(
            self, small_machine):
        from repro.sim.memsys import AccessProfile, StreamProfile

        # coverage 1.0 serves every off-chip miss at ~L2 latency
        profile = AccessProfile(streams=[
            StreamProfile(label="r", kind="read", dependent=False,
                          accesses=10, mem_accesses=10,
                          prefetch_coverage=1.0)])
        assert profile.average_load_latency(small_machine) == (
            pytest.approx(small_machine.l2.latency))
        # and it beats the uncovered version of the same stream
        uncovered = AccessProfile(streams=[
            StreamProfile(label="r", kind="read", dependent=False,
                          accesses=10, mem_accesses=10)])
        assert (profile.average_load_latency(small_machine)
                < uncovered.average_load_latency(small_machine))


class TestIntervalCore:
    def _run(self, machine, trace):
        profile = MemoryHierarchy(machine).profile(trace)
        return IntervalCoreModel(machine).run(trace, profile)

    def test_compute_bound_kernel_commits(self, small_machine):
        trace = KernelTrace("t", scalar_ops=100_000, branches=100,
                            streams=[])
        result = self._run(small_machine, trace)
        commit, fe, be = result.breakdown.normalized() if isinstance(
            result, CycleBreakdown) is False else result.normalized()
        assert commit > 0.9
        assert result.total == pytest.approx(
            100_100 / small_machine.core.commit_width, rel=0.2)

    def test_branchy_kernel_pays_frontend(self, small_machine):
        trace = KernelTrace("t", scalar_ops=1000, branches=10_000,
                            datadep_branches=10_000)
        result = self._run(small_machine, trace)
        commit, fe, be = result.normalized()
        assert fe > 0.5

    def test_memory_bound_kernel_pays_backend(self, small_machine):
        rng = np.random.default_rng(1)
        addrs = indexed_addresses(
            1 << 30, rng.integers(0, 1 << 22, 20_000), 8)
        trace = KernelTrace(
            "t", scalar_ops=20_000, loads=20_000,
            streams=[AccessStream(addrs, 8, "read", "rand",
                                  dependent=True)],
            dependent_load_fraction=1.0)
        result = self._run(small_machine, trace)
        commit, fe, be = result.normalized()
        assert be > 0.7

    def test_datadep_exceeding_branches_rejected(self, small_machine):
        trace = KernelTrace("t", branches=1, datadep_branches=2)
        with pytest.raises(SimulationError):
            self._run(small_machine, trace)

    def test_bandwidth_floor_enforced(self, small_machine):
        # 10 MB of cold traffic cannot move faster than the per-core
        # bandwidth share allows.
        addrs = strided_addresses(1 << 30, 10_000_000 // 8, 8)
        trace = KernelTrace("t", scalar_ops=10,
                            streams=[AccessStream(addrs, 8)])
        result = self._run(small_machine, trace)
        min_cycles = 10_000_000 / small_machine.bytes_per_cycle_per_core()
        assert result.total >= 0.9 * min_cycles

    def test_gflops_and_bandwidth_reporting(self, small_machine):
        trace = KernelTrace("t", scalar_ops=1000, flops=2000.0,
                            streams=[AccessStream(
                                strided_addresses(1 << 30, 1000, 8), 8)])
        result = self._run(small_machine, trace)
        assert result.gflops(2.4) > 0
        assert result.bandwidth_gbps(2.4) > 0
        assert result.arithmetic_intensity() > 0
