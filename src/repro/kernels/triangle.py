"""Triangle counting via masked SpMSpM (fused GraphBLAS formulation).

``c = Σ (L · Lᵀ) .* L`` over the lower-triangular half ``L`` of an
undirected graph: for every edge (i, j) ∈ L the kernel *conjunctively
merges* (intersects) neighbour lists ``L_i`` and ``L_j`` — making TC
the most merge-dominated workload in the paper's suite.

The functional count (``triangle_count``) does the same intersections
64 columns at a time, over per-row block bitsets, so its work grows
with the block groups row j holds per edge, not with the wedges.
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

    A triangle is an edge (i, j) plus a common neighbour k < j of rows
    i and j, so the count is ``Σ |L_i ∩ L_j|`` over the edges.  Each
    row is held as 64-column block bitsets: one group ``(block, mask)``
    per ``block = col >> 6`` the row touches, keyed ``row << 32 |
    block``.  CSR's sorted, duplicate-free rows give the groups in
    O(nnz), with their keys already sorted.  For every edge (i, j) and
    group ``(b, m)`` of row j, one ``searchsorted`` over the group keys
    finds row i's group ``(b, m_i)``, and the edge gains
    ``popcount(m & m_i)``: one query per group, not per wedge.
    Requires fewer than 2**31 rows.
    """
    if l.num_rows != l.num_cols:
        raise WorkloadError("triangle_count needs a square matrix")
    if l.nnz == 0:
        return 0
    row_key = np.repeat(np.arange(l.num_rows, dtype=np.int64) << 32,
                        np.diff(l.ptrs))
    keys = row_key | (l.idxs >> 6)
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    group_keys = keys[starts]
    blocks = l.idxs[starts] >> 6
    masks = np.bitwise_or.reduceat(
        np.left_shift(np.uint64(1), (l.idxs & 63).astype(np.uint64)),
        starts)
    group_ptrs = ptrs_from_ids(group_keys >> 32, l.num_rows)
    # Per edge (i, j): row j's groups g, queried at row i.
    first = group_ptrs[l.idxs]
    counts = group_ptrs[l.idxs + 1] - first
    ends = np.cumsum(counts)
    g = np.arange(ends[-1]) + np.repeat(first - (ends - counts), counts)
    queries = np.repeat(row_key, counts) | blocks[g]
    pos = np.searchsorted(group_keys, queries)
    pos[pos == group_keys.size] = 0
    hit = group_keys[pos] == queries
    return _popcount(masks[g[hit]] & masks[pos[hit]])


def _popcount(words: np.ndarray) -> int:
    """Set bits summed over a uint64 array: a SWAR bit count, since
    ``np.bitwise_count`` needs numpy 2 and a byte table gathers
    through an int64 index per byte."""
    m1, m2, m4, h01 = (np.uint64(0x5555555555555555),
                       np.uint64(0x3333333333333333),
                       np.uint64(0x0F0F0F0F0F0F0F0F),
                       np.uint64(0x0101010101010101))
    w = words - ((words >> np.uint64(1)) & m1)
    w = (w & m2) + ((w >> np.uint64(2)) & m2)
    w = (w + (w >> np.uint64(4))) & m4
    return int(((w * h01) >> np.uint64(56)).sum())


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
