"""CP-ALS on the TMU.

Each ALS sweep runs three TMU-accelerated MTTKRPs (one per mode) while
the Gram-matrix products, the solve, the column normalization and the
fit evaluation stay on the core — the partial-result evaluation pattern
that motivates near-core (rather than discrete-accelerator) integration
in the paper.

Because the dense phase is *identical* in both systems, CP-ALS is
modeled compositionally: per sweep, three MTTKRP phase results (each
with its own memory-level-parallelism regime) plus one shared dense
phase result.  :func:`cpals_runs` returns the composed (baseline, TMU)
pair; :func:`cpals_timing_model` is kept for callers that need a single
:class:`TmuWorkloadModel` view (sensitivity sweeps).
"""

from __future__ import annotations

from ..config import MachineConfig
from ..errors import WorkloadError
from ..formats.coo import CooTensor
from ..kernels.common import sequential_stream
from ..sim.machine import (
    SystemResult,
    TmuWorkloadModel,
    run_baseline,
    run_tmu,
)
from ..sim.trace import AddressSpace, KernelTrace
from ..types import VALUE_BYTES
from .mttkrp import mttkrp_timing_model


def cpals_dense_trace(tensor: CooTensor, rank: int) -> KernelTrace:
    """The per-sweep dense phase shared by both systems: Gram products,
    pinv solve, column normalization, and the per-non-zero fit
    evaluation (GenTen computes the residual at every stored entry).
    It runs on the core either way, at a fraction of peak SIMD
    throughput (small Gram matrices, a serial pinv, strided columns)."""
    n_rows = sum(tensor.shape)
    dense_flops = (2.0 * n_rows * rank * rank + 6.0 * rank ** 3
                   + 2.0 * tensor.nnz * rank)
    vec_ops = int(dense_flops / 8)
    space = AddressSpace()
    streams = [
        sequential_stream(space, extent * rank, VALUE_BYTES, "read",
                          f"factor{mode}")
        for mode, extent in enumerate(tensor.shape)
    ]
    return KernelTrace(
        name="cpals-dense",
        scalar_ops=vec_ops // 4,
        vector_ops=vec_ops,
        loads=vec_ops // 2,
        stores=vec_ops // 4,
        branches=vec_ops // 8,
        datadep_branches=0,
        flops=dense_flops,
        streams=streams,
        dependent_load_fraction=0.0,
        parallel_units=rank,
    )


def _combine(name: str, parts: list[tuple[float, SystemResult]],
             read_to_write: float | None = None) -> SystemResult:
    """Weighted-sum composition of phase results into one run."""
    from ..sim.core import CycleBreakdown

    cycles = sum(w * p.cycles for w, p in parts)
    committing = sum(w * p.breakdown.committing for w, p in parts)
    frontend = sum(w * p.breakdown.frontend for w, p in parts)
    backend = cycles - committing - frontend
    l2u = sum(w * p.cycles * p.breakdown.load_to_use for w, p in parts
              ) / max(1e-9, cycles)
    return SystemResult(
        name=name,
        cycles=cycles,
        breakdown=CycleBreakdown(
            committing=committing,
            frontend=frontend,
            backend=max(0.0, backend),
            load_to_use=l2u,
            mem_bytes=int(sum(w * p.breakdown.mem_bytes for w, p in parts)),
            flops=sum(w * p.breakdown.flops for w, p in parts),
        ),
        read_to_write=read_to_write,
        tmu_cycles=sum(w * p.tmu_cycles for w, p in parts),
        core_cycles=sum(w * p.core_cycles for w, p in parts),
    )


def cpals_runs(tensor: CooTensor, rank: int, machine: MachineConfig
               ) -> tuple[SystemResult, SystemResult]:
    """Composite CP-ALS sweep: three MTTKRPs (accelerated or not) plus
    the shared dense phase.  Returns (baseline, tmu) system results."""
    from ..kernels.mttkrp import characterize_mttkrp

    if tensor.ndim != 3:
        raise WorkloadError("cpals_runs expects an order-3 tensor")
    mtt_trace = characterize_mttkrp(tensor, rank, machine)
    mtt_base = run_baseline(mtt_trace, machine)
    dense = run_baseline(cpals_dense_trace(tensor, rank), machine)
    baseline = _combine("cpals/baseline",
                        [(3.0, mtt_base), (1.0, dense)])

    mtt_model = mttkrp_timing_model(tensor, rank, machine,
                                    parallel="mode", name="cpals")
    mtt_tmu = run_tmu(mtt_model, machine)
    core_time = 3.0 * mtt_tmu.core_cycles + dense.cycles
    tmu_time = 3.0 * mtt_tmu.tmu_cycles
    r2w = core_time / tmu_time if tmu_time else float("inf")
    tmu = _combine("cpals/tmu", [(3.0, mtt_tmu), (1.0, dense)],
                   read_to_write=r2w)
    return baseline, tmu


def cpals_timing_model(tensor: CooTensor, rank: int,
                       machine: MachineConfig, *,
                       name: str = "cpals") -> TmuWorkloadModel:
    """Single-model view of one CP-ALS sweep (3x MTTKRP on the TMU plus
    the dense phase folded into the core trace).  No figure reaches
    it: ``run_workload`` always takes the composite :func:`cpals_runs`
    for CP-ALS.  It stays as the registry's ``tmu_model`` entry for
    CP-ALS and because the end-to-end benchmark's tracer wraps it by
    name."""
    if tensor.ndim != 3:
        raise WorkloadError("cpals_timing_model expects an order-3 tensor")
    base = mttkrp_timing_model(tensor, rank, machine, parallel="mode",
                               name=name)
    dense = cpals_dense_trace(tensor, rank)
    t = base.core_trace
    core_trace = KernelTrace(
        name=f"{name}-callbacks",
        scalar_ops=3 * t.scalar_ops + dense.scalar_ops,
        vector_ops=3 * t.vector_ops + dense.vector_ops,
        loads=3 * t.loads + dense.loads,
        stores=3 * t.stores + dense.stores,
        branches=3 * t.branches + dense.branches,
        datadep_branches=3 * t.datadep_branches,
        flops=3.0 * t.flops + dense.flops,
        streams=t.streams * 3,
        dependent_load_fraction=t.dependent_load_fraction,
        parallel_units=t.parallel_units,
    )
    return TmuWorkloadModel(
        name=name,
        tmu_streams=base.tmu_streams * 3,
        layer_elements=[3 * e for e in base.layer_elements],
        layer_lanes=base.layer_lanes,
        merge_steps=0,
        outq_records=3 * base.outq_records,
        outq_bytes=3 * base.outq_bytes,
        core_trace=core_trace,
    )
