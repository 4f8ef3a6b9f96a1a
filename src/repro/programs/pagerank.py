"""PageRank on the TMU (Table 4 row "PageRank").

The accelerated part is the gather SpMV (``Z_i = A_ij X_j Y_i``); the
damping/weight update is regular streaming compute that stays on the
core un-accelerated — the paper notes this is why PR's speedup trails
SpMV's.  The functional program is :func:`repro.programs.spmv.
build_spmv_program` applied to the contribution vector; this module
provides the timing model that adds the un-accelerated update.
"""

from __future__ import annotations

from ..config import MachineConfig
from ..formats.csr import CsrMatrix
from ..sim.machine import TmuWorkloadModel
from .common import sve_lanes_of
from .spmv import spmv_timing_model


def pagerank_timing_model(adj: CsrMatrix, machine: MachineConfig, *,
                          name: str = "pagerank") -> TmuWorkloadModel:
    """One PR iteration: TMU-accelerated SpMV plus the core-side
    contribution/damping updates."""
    model = spmv_timing_model(adj, machine, name=name)
    n = adj.num_rows
    lanes = sve_lanes_of(machine)
    chunks = -(-n // lanes)

    trace = model.core_trace
    # contribution divide, damping fma, delta abs/reduce, convergence
    # bookkeeping — GAP PR touches the rank arrays twice per iteration.
    # The rank and degree reads are charged through the instruction mix
    # only: the callback core walks no read stream.
    trace.vector_ops += 8 * chunks
    trace.loads += 4 * chunks
    trace.stores += 2 * chunks
    trace.branches += chunks
    trace.flops += 4.0 * n
    return model
