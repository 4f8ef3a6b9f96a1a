"""IMP prefetcher model and NoC model tests."""

import pytest

from repro.config import NocConfig
from repro.errors import SimulationError
from repro.sim.memsys import AccessProfile, StreamProfile
from repro.sim.prefetcher import ImpConfig, apply_imp


def profile_with(streams):
    return AccessProfile(streams=streams, line_bytes=64)


def gather_stream(mem=100):
    return StreamProfile(label="b[idx]", kind="read", dependent=True,
                         gather=True, accesses=1000, bytes=8000,
                         llc_hits=100, mem_accesses=mem)


def accumulator_stream():
    return StreamProfile(label="accumulator", kind="read",
                         dependent=True, accesses=1000, bytes=8000,
                         l2_hits=600, llc_hits=300, mem_accesses=100)


class TestImp:
    def test_covers_gathers(self):
        out = apply_imp(profile_with([gather_stream()]))
        assert out.streams[0].prefetch_coverage > 0.5

    def test_ignores_plain_dependent_scans(self):
        scan = StreamProfile(label="B idxs scan", kind="read",
                             dependent=True, accesses=100, bytes=400,
                             mem_accesses=50)
        out = apply_imp(profile_with([scan]))
        assert out.streams[0].prefetch_coverage == 0.0

    def test_pollutes_partial_results_when_active(self):
        out = apply_imp(profile_with([gather_stream(),
                                      accumulator_stream()]))
        acc = out.streams[1]
        assert acc.l2_hits < 600
        assert acc.mem_accesses > 100

    def test_no_pollution_without_indirect_streams(self):
        out = apply_imp(profile_with([accumulator_stream()]))
        acc = out.streams[0]
        assert acc.l2_hits == 600 and acc.mem_accesses == 100

    def test_config_validation(self):
        with pytest.raises(SimulationError):
            ImpConfig(coverage=1.5)
        with pytest.raises(SimulationError):
            ImpConfig(pollution_factor=-0.1)

    def test_original_profile_untouched(self):
        original = profile_with([gather_stream()])
        apply_imp(original)
        assert original.streams[0].prefetch_coverage == 0.0


class TestNoc:
    def test_average_hops_of_4x4_mesh(self):
        noc = NocConfig(mesh_x=4, mesh_y=4)
        # mean Manhattan distance of a 4x4 mesh is 2.5
        assert noc.average_hops() == pytest.approx(2.5)
