"""System-level run tests: baseline/TMU/Single-Lane/IMP invariants."""

import pytest

from repro.config import experiment_machine
from repro.errors import SimulationError
from repro.generators import load_matrix, uniform_random_matrix
from repro.kernels.spmv import characterize_spmv
from repro.programs import spmv_timing_model
from repro.sim.core import IntervalCoreModel
from repro.sim.machine import (
    TmuWorkloadModel,
    run_baseline,
    run_imp,
    run_single_lane,
    run_tmu,
)
from repro.sim.trace import KernelTrace


@pytest.fixture(scope="module")
def setup():
    machine = experiment_machine("small")
    matrix = load_matrix("M2", "small")
    trace = characterize_spmv(matrix, machine)
    model = spmv_timing_model(matrix, machine)
    return machine, matrix, trace, model


class TestBaseline:
    def test_positive_cycles(self, setup):
        machine, _, trace, _ = setup
        result = run_baseline(trace, machine)
        assert result.cycles > 0
        assert result.breakdown.total == pytest.approx(result.cycles)

    def test_breakdown_fractions_sum_to_one(self, setup):
        machine, _, trace, _ = setup
        result = run_baseline(trace, machine)
        assert sum(result.breakdown.normalized()) == pytest.approx(1.0)


class TestTmu:
    def test_tmu_beats_baseline_on_spmv(self, setup):
        machine, _, trace, model = setup
        base = run_baseline(trace, machine)
        tmu = run_tmu(model, machine)
        assert 1.5 < base.cycles / tmu.cycles < 8.0

    def test_read_to_write_consistency(self, setup):
        machine, _, _, model = setup
        tmu = run_tmu(model, machine)
        assert tmu.read_to_write == pytest.approx(
            tmu.core_cycles / tmu.tmu_cycles)

    def test_total_covers_slower_side(self, setup):
        machine, _, _, model = setup
        tmu = run_tmu(model, machine)
        assert tmu.cycles >= max(tmu.tmu_cycles, tmu.core_cycles)

    def test_more_lanes_never_slower(self, setup):
        machine, _, _, model = setup
        cycles = [run_tmu(model, machine, lanes=l).cycles
                  for l in (1, 2, 4, 8)]
        assert all(a >= b - 1e-9 for a, b in zip(cycles, cycles[1:]))

    def test_zero_lanes_rejected(self, setup):
        machine, _, _, model = setup
        with pytest.raises(SimulationError):
            run_tmu(model, machine, lanes=0)

    def test_storage_monotonic_for_spmv(self, setup):
        machine, _, _, model = setup
        tiny = machine.with_tmu(per_lane_storage_bytes=256)
        big = machine.with_tmu(per_lane_storage_bytes=4096)
        assert run_tmu(model, tiny).cycles >= run_tmu(model, big).cycles

    def test_tmu_removes_frontend_stalls(self, setup):
        machine, _, trace, model = setup
        base = run_baseline(trace, machine)
        tmu = run_tmu(model, machine)
        _, fe_base, _ = base.breakdown.normalized()
        _, fe_tmu, _ = tmu.breakdown.normalized()
        assert fe_tmu < fe_base + 1e-9
        assert fe_tmu < 0.05

    def test_load_to_use_drops(self, setup):
        """The Figure 11 effect: outQ reads hit the L2."""
        machine, _, trace, model = setup
        base = run_baseline(trace, machine)
        tmu = run_tmu(model, machine)
        assert tmu.breakdown.load_to_use < base.breakdown.load_to_use


class TestComposition:
    """``run_tmu``'s one model of TMU/core overlap, pinned exactly:
    ``max(tmu, core, bw_floor) + tmu / chunks``.  The fill is one
    produce chunk; a chunk-level double buffer differs from it by at
    most p - c per run (ROADMAP item 1).

    The models have no traversal streams and no result writes, so the
    TMU side is its iterate bound, the core side is its committing
    time plus the outQ reads' L2 stall at an MLP of 1 (thousands of
    instructions per miss), and the bandwidth floor is 0."""

    OUTQ_CHUNKS = 32

    def _model(self, machine, elements, ops):
        return TmuWorkloadModel(
            name="composition",
            tmu_streams=[],
            layer_elements=[elements],
            layer_lanes=[machine.tmu.lanes],
            outq_bytes=self.OUTQ_CHUNKS * machine.tmu.outq_chunk_bytes,
            core_trace=KernelTrace("callbacks", scalar_ops=ops),
        )

    def _check(self, machine, model):
        tmu_cycles = model.layer_elements[0] / machine.tmu.lanes
        outq_lines = model.outq_bytes // machine.l1d.line_bytes
        core_cycles = (model.core_trace.scalar_ops / machine.core.commit_width
                       + outq_lines * machine.l2.latency
                       * (1.0 - IntervalCoreModel._L2_HIDE))
        bw_floor = 0.0
        result = run_tmu(model, machine)
        assert result.tmu_cycles == tmu_cycles
        assert result.core_cycles == core_cycles
        chunks = max(1, model.outq_bytes / machine.tmu.outq_chunk_bytes)
        assert chunks == self.OUTQ_CHUNKS
        assert result.cycles == (max(tmu_cycles, core_cycles, bw_floor)
                                 + tmu_cycles / chunks)
        return result

    def test_producer_bound(self, setup):
        machine = setup[0]
        result = self._check(machine, self._model(machine, 80_000, 8_000))
        assert result.tmu_cycles > result.core_cycles

    def test_consumer_bound(self, setup):
        machine = setup[0]
        result = self._check(machine, self._model(machine, 8_000, 80_000))
        assert result.core_cycles > result.tmu_cycles


class TestSingleLaneAndImp:
    def test_single_lane_between_baseline_and_tmu(self, setup):
        machine, _, trace, model = setup
        base = run_baseline(trace, machine)
        tmu = run_tmu(model, machine)
        sl = run_single_lane(model, machine)
        assert tmu.cycles <= sl.cycles
        assert sl.cycles <= base.cycles * 1.05

    def test_imp_helps_gather_workloads(self, setup):
        machine, _, trace, _ = setup
        base = run_baseline(trace, machine)
        imp = run_imp(trace, machine)
        assert imp.cycles <= base.cycles * 1.01

    def test_imp_never_helps_without_gathers(self, setup):
        machine = setup[0]
        matrix = uniform_random_matrix(500, 500, 4, seed=3)
        from repro.kernels.spmspm import characterize_spmspm

        trace = characterize_spmspm(matrix, matrix.transpose(), machine)
        base = run_baseline(trace, machine)
        imp = run_imp(trace, machine)
        assert imp.cycles >= base.cycles * 0.999
