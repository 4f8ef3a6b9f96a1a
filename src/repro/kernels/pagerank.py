"""PageRank, Jacobi-style (GAP benchmark suite formulation).

``Z_i = A_ij X_j Y_i`` per Table 4: each iteration multiplies the
(pull-direction) adjacency matrix by the outgoing-contribution vector
and applies the damping update.  The SpMV dominates; the weight update
(``Y``) is regular streaming compute the TMU does not accelerate —
which is why the paper reports slightly lower PR speedups than SpMV.
Only the baseline's characterization lives here: the TMU side is
:func:`repro.programs.pagerank.pagerank_timing_model`, and the
functional check of PR's SpMV is Table 4's einsum ``ij,j->i``.
"""

from __future__ import annotations

from ..config import MachineConfig
from ..formats.csr import CsrMatrix
from ..sim.trace import KernelTrace
from ..types import VALUE_BYTES
from .spmv import characterize_spmv


def characterize_pagerank(adj: CsrMatrix, machine: MachineConfig,
                          iterations: int = 1) -> KernelTrace:
    """Characterize one PR iteration: the SpMV plus the (regular,
    streaming, non-accelerated) contribution and damping updates."""
    trace = characterize_spmv(adj, machine)
    n = adj.num_rows
    from ..sim.trace import AddressSpace
    from .common import sequential_stream, sve_lanes, ceil_div

    lanes = sve_lanes(machine.core.vector_bits)
    chunks = ceil_div(n, lanes)
    space = AddressSpace()
    extra = [
        sequential_stream(space, n, VALUE_BYTES, kind, label)
        for kind, label in (("read", "ranks"), ("read", "out_deg"),
                            ("write", "contrib"))
    ]
    return KernelTrace(
        name="pagerank",
        scalar_ops=trace.scalar_ops + 2 * n // lanes,
        vector_ops=trace.vector_ops + 4 * chunks,  # div, fma, abs, sum
        loads=trace.loads + 2 * chunks,
        stores=trace.stores + chunks,
        branches=trace.branches + chunks,
        datadep_branches=trace.datadep_branches,
        flops=trace.flops + 4.0 * n,
        streams=trace.streams + extra,
        dependent_load_fraction=trace.dependent_load_fraction * 0.85,
        parallel_units=n,
    )
