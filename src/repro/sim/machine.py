"""Whole-system execution models: software baseline, TMU, Single-Lane
TMU and IMP variants.

Every run is expressed per-core (all cores execute symmetric shards of
the row/fiber space, the paper's parallelization), with the off-chip
bandwidth shared fairly.  Speedups are ratios of per-core cycle counts,
which equal whole-system ratios under symmetric sharding.

The TMU run models the decoupled producer/consumer pipeline of Section
5: the TMU streams traversal data from the LLC at up to
``outstanding_requests`` in flight, marshals outQ chunks into the L2,
and the core consumes chunks with SIMD callbacks.  Total time is the
slower of the two sides plus one chunk of pipeline fill — which makes
the *read-to-write ratio* (Figure 13) a direct model output.

Cache behaviour is classified by the stack-distance pass
:mod:`repro.sim.stackdist`, or by the golden-reference
:class:`~repro.sim.cache.Cache` when the run selects it
(``--reference``, :func:`repro.sim.memsys.configure_reference`).  The
selection is no part of the machine: the two models are
hit/miss-equivalent, so every result in this module is identical
either way — only the wall-clock cost of producing it changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import MachineConfig
from ..errors import SimulationError
from .core import CycleBreakdown, IntervalCoreModel
from .memsys import AccessProfile, MemoryHierarchy, StreamProfile, \
    llc_only_profile
from .prefetcher import apply_imp
from .trace import AccessStream, KernelTrace


@dataclass
class TmuWorkloadModel:
    """Everything the timing model needs about one TMU-mapped workload.

    Produced by the builders in :mod:`repro.programs`; consumed by
    :func:`run_tmu`.
    """

    name: str
    #: traversal read streams the TMU issues (element-granular)
    tmu_streams: list[AccessStream]
    #: elements traversed per TMU layer over the whole run
    layer_elements: list[int]
    #: lanes occupied per layer under the default 8-lane configuration
    layer_lanes: list[int]
    #: TG merge steps (each serializes one gite across the layer)
    merge_steps: int = 0
    #: records pushed into the outQ (callback IDs + operands)
    outq_records: int = 0
    #: total outQ traffic in bytes
    outq_bytes: int = 0
    #: the core-side callback work (instruction mix + result streams)
    core_trace: KernelTrace = field(default_factory=lambda: KernelTrace("_"))

    def scaled_lanes(self, lanes: int) -> list[int]:
        """Lane occupancy when the engine has ``lanes`` lanes."""
        return [max(1, min(l, lanes)) for l in self.layer_lanes]

    def scalarized(self, vector_lanes: int) -> "TmuWorkloadModel":
        """The same workload on an engine that cannot marshal vector
        operands (Single-Lane): every SIMD callback op becomes
        ``vector_lanes`` scalar ops and per-element records replace the
        vectorized ones."""
        t = self.core_trace
        scalar_trace = KernelTrace(
            name=f"{t.name}-scalar",
            scalar_ops=t.scalar_ops + t.vector_ops * vector_lanes,
            vector_ops=0,
            loads=t.loads * max(1, vector_lanes // 2),
            stores=t.stores,
            branches=t.branches * max(1, vector_lanes // 2),
            datadep_branches=t.datadep_branches,
            flops=t.flops,
            streams=t.streams,
            dependent_load_fraction=t.dependent_load_fraction,
            parallel_units=t.parallel_units,
        )
        return TmuWorkloadModel(
            name=self.name,
            tmu_streams=self.tmu_streams,
            layer_elements=self.layer_elements,
            layer_lanes=self.layer_lanes,
            merge_steps=self.merge_steps,
            outq_records=self.outq_records * max(1, vector_lanes // 2),
            outq_bytes=self.outq_bytes,
            core_trace=scalar_trace,
        )


@dataclass
class SystemResult:
    """Outcome of one system-level run."""

    name: str
    cycles: float
    breakdown: CycleBreakdown
    #: TMU runs only: core chunk-read time / TMU chunk-write time
    read_to_write: float | None = None
    #: TMU runs only: producer/consumer side times
    tmu_cycles: float = 0.0
    core_cycles: float = 0.0


#: line requests one lane's queues keep in flight (queue-depth bound of
#: a single traversal stream; parallel lanes multiply it)
LANE_OUTSTANDING = 8

#: sustained cycles per merge gite: the merger can only pull when every
#: active lane's queue head is valid — TU refill cadence and the
#: comparator/pop round trip stretch the ideal 1 gite/cycle
MERGE_CPI = 2.0


def run_baseline(trace: KernelTrace, machine: MachineConfig
                 ) -> SystemResult:
    """Software baseline: full hierarchy profile + interval core."""
    profile = MemoryHierarchy(machine).profile(trace)
    breakdown = IntervalCoreModel(machine).run(trace, profile)
    return SystemResult(name=f"{trace.name}/baseline",
                        cycles=breakdown.total, breakdown=breakdown)


def run_imp(trace: KernelTrace, machine: MachineConfig) -> SystemResult:
    """Baseline core + Indirect Memory Prefetcher (Figure 15)."""
    profile = apply_imp(MemoryHierarchy(machine).profile(trace))
    breakdown = IntervalCoreModel(machine).run(trace, profile)
    return SystemResult(name=f"{trace.name}/imp",
                        cycles=breakdown.total, breakdown=breakdown)


#: queue storage an outstanding line effectively occupies, relative to
#: one cache line: the line's own data plus the sibling streams'
#: elements (indexes, pointers, gathered values) buffered alongside it
STORAGE_PER_LINE_FACTOR = 4


def _tmu_outstanding(machine: MachineConfig, lanes: int) -> float:
    """In-flight line requests the engine sustains: bounded by the
    request tracker, the shared per-lane storage (each line's data is
    buffered together with its sibling streams' elements, Section 5.5),
    and the per-lane queue depth."""
    tmu = machine.tmu
    storage_lines = (tmu.per_lane_storage_bytes * tmu.lanes) / (
        machine.llc.line_bytes * STORAGE_PER_LINE_FACTOR)
    return float(max(1.0, min(tmu.outstanding_requests, storage_lines,
                              lanes * LANE_OUTSTANDING)))


def _core_outq_profile(model: TmuWorkloadModel,
                       machine: MachineConfig) -> AccessProfile:
    """Synthetic memory profile of the callback core: outQ reads hit the
    private L2 (the TMU injects chunks there); result writes stream out
    through the hierarchy."""
    line = machine.l1d.line_bytes
    outq_lines = int(np.ceil(model.outq_bytes / line))
    streams = [StreamProfile(
        label="outQ", kind="read", dependent=False,
        accesses=outq_lines, bytes=model.outq_bytes,
        l1_hits=0, l2_hits=outq_lines, llc_hits=0, mem_accesses=0,
    )]
    for s in model.core_trace.streams:
        if s.kind != "write":
            continue
        lines = max(1, s.bytes // line)
        streams.append(StreamProfile(
            label=s.label, kind="write", dependent=False,
            accesses=s.count, bytes=s.bytes,
            l1_hits=0, l2_hits=0, llc_hits=0, mem_accesses=lines,
        ))
    return AccessProfile(streams=streams, line_bytes=line)


def run_tmu(model: TmuWorkloadModel, machine: MachineConfig, *,
            lanes: int | None = None,
            merge_on_engine: bool = True) -> SystemResult:
    """TMU-accelerated run (multi-lane by default).

    ``lanes`` overrides the engine's lane count (Single-Lane = 1);
    ``merge_on_engine=False`` models engines without merge support.
    """
    tmu = machine.tmu
    lanes = tmu.lanes if lanes is None else lanes
    if lanes < 1:
        raise SimulationError("the engine needs at least one lane")

    # ---- producer (TMU) side ------------------------------------
    llc_profile = llc_only_profile(machine, model.tmu_streams)
    outstanding = _tmu_outstanding(machine, lanes)
    mem_lat = machine.memory_latency_cycles()
    llc_lat = machine.llc.latency + machine.noc.average_latency() / 2

    mem_lines = llc_profile.mem_lines
    llc_hits = llc_profile.total("llc_hits")
    t_mem_latency = (mem_lines * mem_lat + llc_hits * llc_lat
                     ) / outstanding
    t_llc_throughput = (mem_lines + llc_hits) / 2.0  # 2 lines/cycle port
    t_bandwidth = llc_profile.mem_bytes / max(
        1e-9, machine.bytes_per_cycle_per_core())

    occupancy = model.scaled_lanes(lanes)
    t_iterate = max(
        (elems / lanes_l for elems, lanes_l
         in zip(model.layer_elements, occupancy)),
        default=0.0,
    )
    t_merge = (model.merge_steps * MERGE_CPI) if merge_on_engine else 0.0

    tmu_cycles = max(t_mem_latency, t_llc_throughput, t_bandwidth,
                     t_iterate, t_merge)

    # ---- consumer (core) side ------------------------------------
    core_profile = _core_outq_profile(model, machine)
    core_breakdown = IntervalCoreModel(machine).run(
        model.core_trace, core_profile)
    core_cycles = core_breakdown.total

    # ---- pipeline composition ------------------------------------
    # The off-chip bus carries both the TMU's traversal reads and the
    # core's result writebacks; the combined traffic bounds the run.
    write_lines = core_profile.total("mem_accesses", "write")
    # Result writes are sequential full-line stores: write-combining
    # drains them without allocate-fills, so they cross the bus once.
    combined_bytes = llc_profile.mem_bytes + write_lines * (
        core_profile.line_bytes)
    bw_floor = combined_bytes / max(1e-9,
                                    machine.bytes_per_cycle_per_core())
    chunks = max(1.0, model.outq_bytes / tmu.outq_chunk_bytes)
    fill = tmu_cycles / chunks  # first chunk must exist before compute
    total = max(tmu_cycles, core_cycles, bw_floor) + fill
    read_to_write = (core_cycles / tmu_cycles) if tmu_cycles else (
        float("inf"))

    committing = core_breakdown.committing
    frontend = core_breakdown.frontend
    backend = max(0.0, total - committing - frontend)
    breakdown = CycleBreakdown(
        committing=committing,
        frontend=frontend,
        backend=backend,
        load_to_use=core_profile.average_load_latency(machine),
        mem_bytes=llc_profile.mem_bytes + core_profile.total(
            "mem_accesses", "write") * core_profile.line_bytes,
        flops=model.core_trace.flops,
    )
    return SystemResult(
        name=f"{model.name}/tmu{lanes}",
        cycles=total,
        breakdown=breakdown,
        read_to_write=read_to_write,
        tmu_cycles=tmu_cycles,
        core_cycles=core_cycles,
    )


def run_single_lane(model: TmuWorkloadModel, machine: MachineConfig
                    ) -> SystemResult:
    """Single-lane traversal engine (HATS/SpZip-class, Section 7.3):
    same storage as the TMU, one lane, no merge or parallel loading.
    Merging (if the workload needs it) falls back to the core — which
    is why the paper only evaluates this point on SpMV and SpMSpM.

    Without parallel lanes the engine cannot marshal vector operands,
    so the core computes scalar code on the marshaled stream."""
    vector_lanes = max(1, machine.core.vector_bits // 64)
    result = run_tmu(model.scalarized(vector_lanes), machine, lanes=1)
    result.name = f"{model.name}/single-lane"
    return result
