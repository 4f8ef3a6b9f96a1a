"""PageRank, Jacobi-style (GAP benchmark suite formulation).

``Z_i = A_ij X_j Y_i`` per Table 4: each iteration multiplies the
(pull-direction) adjacency matrix by the outgoing-contribution vector
and applies the damping update.  The SpMV dominates; the weight update
(``Y``) is regular streaming compute the TMU does not accelerate —
which is why the paper reports slightly lower PR speedups than SpMV.
"""

from __future__ import annotations

import numpy as np

from ..config import MachineConfig
from ..errors import WorkloadError
from ..formats.csr import CsrMatrix
from ..sim.trace import KernelTrace
from ..types import VALUE_BYTES
from .spmv import characterize_spmv, spmv


def pagerank(adj: CsrMatrix, *, damping: float = 0.85,
             iterations: int = 10,
             tolerance: float = 0.0) -> np.ndarray:
    """Reference PageRank over a (square) adjacency matrix.

    ``adj[i, j] != 0`` means an edge j → i in pull direction (row i
    gathers from its in-neighbours).  Returns the rank vector.
    """
    if adj.num_rows != adj.num_cols:
        raise WorkloadError("pagerank needs a square adjacency matrix")
    n = adj.num_rows
    if n == 0:
        return np.zeros(0)
    # Out-degree of j = column count of j = row count of transpose.
    out_deg = np.zeros(n)
    np.add.at(out_deg, adj.idxs, 1.0)
    out_deg[out_deg == 0] = 1.0
    ranks = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    # Binary adjacency for the gather (GAP PR ignores edge weights).
    ones = CsrMatrix(adj.shape, adj.ptrs, adj.idxs,
                     np.ones(adj.nnz), validate=False)
    for _ in range(iterations):
        contrib = ranks / out_deg
        new_ranks = base + damping * spmv(ones, contrib)
        delta = float(np.abs(new_ranks - ranks).sum())
        ranks = new_ranks
        if tolerance and delta < tolerance:
            break
    return ranks


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
