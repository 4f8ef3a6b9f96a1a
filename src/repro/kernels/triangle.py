"""Triangle counting via masked SpMSpM (fused GraphBLAS formulation).

``c = Σ (L · Lᵀ) .* L`` over the lower-triangular half ``L`` of an
undirected graph: for every edge (i, j) ∈ L the kernel *conjunctively
merges* (intersects) neighbour lists ``L_i`` and ``L_j`` — making TC
the most merge-dominated workload in the paper's suite.
"""

from __future__ import annotations

import numpy as np

from ..config import MachineConfig
from ..errors import WorkloadError
from ..formats.csr import CsrMatrix
from ..sim.trace import AccessStream, AddressSpace, KernelTrace, Ranges
from ..types import ptrs_from_ids
from .common import CsrOperand, operand_memo


def lower_triangle(a: CsrMatrix) -> CsrMatrix:
    """Strictly-lower-triangular part of a square matrix, in CSR."""
    if a.num_rows != a.num_cols:
        raise WorkloadError("lower_triangle needs a square matrix")
    row_of = np.repeat(np.arange(a.num_rows), np.diff(a.ptrs))
    keep = a.idxs < row_of
    new_ptrs = ptrs_from_ids(row_of[keep], a.num_rows)
    return CsrMatrix(a.shape, new_ptrs, a.idxs[keep], a.vals[keep],
                     validate=False)


def triangle_count(l: CsrMatrix) -> int:
    """Count triangles of the graph whose lower-triangular adjacency is
    ``l`` (each triangle counted once).

    Vectorized wedge closure: a triangle is an edge (i, j) plus a common
    neighbour k, i.e. a wedge i-j-k whose closing pair (i, k) is itself
    an edge.  Materialize every wedge's closing pair as a packed
    ``i << 32 | k`` key and count the ones present in the edge-key set —
    one searchsorted instead of an intersect1d per edge.  Requires
    column indexes < 2**32 (far beyond any simulated input).
    """
    if l.num_rows != l.num_cols:
        raise WorkloadError("triangle_count needs a square matrix")
    if l.nnz == 0:
        return 0
    row_nnz = np.diff(l.ptrs)
    row_of = np.repeat(np.arange(l.num_rows, dtype=np.int64), row_nnz)
    edge_keys = np.sort((row_of << 32) | l.idxs)
    # Per edge p = (i, j): expand row j's neighbour list.
    j = l.idxs
    counts = row_nnz[j]
    total = int(counts.sum())
    if total == 0:
        return 0
    i_rep = np.repeat(row_of, counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts,
                                           counts)
    k = l.idxs[np.repeat(l.ptrs[j], counts) + offsets]
    wedge_keys = (i_rep << 32) | k
    pos = np.searchsorted(edge_keys, wedge_keys)
    pos[pos == edge_keys.size] = 0
    return int(np.count_nonzero(edge_keys[pos] == wedge_keys))


@operand_memo
def triangle_streams(l: CsrMatrix) -> tuple[AccessStream, ...]:
    """The streams the baseline and the TMU model both issue: L's
    pointer and index walks (``L ptrs``, ``L_i idxs``) and the re-scans
    of row j's list per edge (i, j) (``L_j idxs``), a dependent lookup,
    whose index is the rows' ranges: no scan position is built."""
    op = CsrOperand(AddressSpace(), l)
    return (
        op.ptr_stream("L ptrs"),
        op.idx_stream("L_i idxs"),
        op.idx_stream("L_j idxs", Ranges.fibers(l.ptrs, l.idxs),
                      dependent=True),
    )


def characterize_triangle(l: CsrMatrix,
                          machine: MachineConfig) -> KernelTrace:
    """Characterize the masked-SpMSpM TC baseline.

    Per edge (i, j), the merge walks both neighbour lists until one is
    exhausted — every step is a compare plus a data-dependent branch.
    """
    rows = l.num_rows
    row_nnz = np.diff(l.ptrs)
    # Steps of a two-pointer intersection of rows i and j per edge:
    # |L_i| + |L_j| advances, summed over all edges (vectorized).
    row_of = np.repeat(np.arange(rows), row_nnz)
    merge_steps = int(row_nnz[row_of].sum() + row_nnz[l.idxs].sum())

    return KernelTrace(
        name="triangle",
        scalar_ops=3 * merge_steps + 4 * rows,
        vector_ops=0,
        loads=merge_steps + 2 * l.nnz + 2 * rows,
        stores=rows,
        branches=int(1.2 * merge_steps) + rows,
        datadep_branches=int(0.6 * merge_steps),
        flops=0.0,                      # integer kernel (Figure 12 note)
        streams=list(triangle_streams(l)),
        dependent_load_fraction=0.4,
        parallel_units=rows,
    )
