"""SpKAdd: summation of K sparse matrices, ``Z_ij = Σ_k A^k_ij`` (DCSR).

The paper's merge-intensive headline kernel (Hussain et al.): K input
matrices are co-iterated row by row and joined with a K-way disjunctive
merge.  Inputs are produced by cyclically distributing the rows of a
source matrix (``A^x_i = A_{i·k+x}``) so domain structure is preserved.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..config import MachineConfig
from ..errors import WorkloadError
from ..formats.csr import CsrMatrix
from ..formats.convert import coo_to_dcsr
from ..formats.dcsr import DcsrMatrix
from ..formats.coo import CooMatrix
from ..sim.trace import AccessStream, AddressSpace, KernelTrace, Ranges
from ..types import INDEX_BYTES, VALUE_BYTES, ptrs_from_ids, stable_order
from .common import operand_memo, output_streams, sorted_unique


def split_rows_cyclic(a: CsrMatrix, k: int) -> list[DcsrMatrix]:
    """Cyclically distribute the rows of ``a`` over ``k`` DCSR matrices:
    row ``i`` of output ``x`` is row ``i*k + x`` of ``a`` (Section 6)."""
    if k < 1:
        raise WorkloadError("k must be >= 1")
    out_rows = -(-a.num_rows // k)
    row_of = np.repeat(np.arange(a.num_rows, dtype=np.int64),
                       np.diff(a.ptrs))
    residue = row_of % k
    # One stable partition by residue: each part keeps the CSR order of
    # its rows, and i*k+x is monotone in i for a fixed residue x, so
    # every part is already lexsorted and skips the re-sort.
    order = stable_order(residue, k)
    bounds = ptrs_from_ids(residue, k)
    rows, cols, vals = row_of[order] // k, a.idxs[order], a.vals[order]
    outputs = []
    for beg, end in zip(bounds[:-1], bounds[1:]):
        part = CooMatrix((out_rows, a.num_cols), rows[beg:end],
                         cols[beg:end], vals[beg:end], sum_duplicates=False,
                         assume_sorted=True)
        outputs.append(coo_to_dcsr(part))
    return outputs


def spkadd(matrices: list[DcsrMatrix]) -> CsrMatrix:
    """Reference SpKAdd via a K-way heap merge per output row.

    All inputs must share the same shape.  Returns CSR output.
    """
    if not matrices:
        raise WorkloadError("spkadd needs at least one input matrix")
    shape = matrices[0].shape
    if any(m.shape != shape for m in matrices):
        raise WorkloadError("spkadd inputs must share one shape")
    rows, cols = shape

    # Row-index cursors per input (DCSR rows are sparse).
    cursors = [0] * len(matrices)
    out_ptrs = np.zeros(rows + 1, dtype=np.int64)
    idx_parts: list[np.ndarray] = []
    val_parts: list[np.ndarray] = []
    for i in range(rows):
        # Collect the fibers of inputs that have row i (hierarchical
        # merge: first dimension selects active lanes).
        fibers = []
        for x, m in enumerate(matrices):
            cur = cursors[x]
            if cur < m.num_nonempty_rows and int(m.row_idxs[cur]) == i:
                beg, end = int(m.ptrs[cur]), int(m.ptrs[cur + 1])
                fibers.append((m.idxs[beg:end], m.vals[beg:end]))
                cursors[x] += 1
        if not fibers:
            out_ptrs[i + 1] = out_ptrs[i]
            continue
        # K-way disjunctive merge with accumulation.
        heap = [(int(idxs[0]), x, 0) for x, (idxs, _vals) in
                enumerate(fibers)]
        heapq.heapify(heap)
        out_i: list[int] = []
        out_v: list[float] = []
        while heap:
            col, x, pos = heapq.heappop(heap)
            idxs, vals = fibers[x]
            if out_i and out_i[-1] == col:
                out_v[-1] += float(vals[pos])
            else:
                out_i.append(col)
                out_v.append(float(vals[pos]))
            if pos + 1 < idxs.size:
                heapq.heappush(heap, (int(idxs[pos + 1]), x, pos + 1))
        idx_parts.append(np.asarray(out_i, dtype=np.int64))
        val_parts.append(np.asarray(out_v))
        out_ptrs[i + 1] = out_ptrs[i] + len(out_i)
    return CsrMatrix(
        shape,
        out_ptrs,
        np.concatenate(idx_parts) if idx_parts else np.zeros(0, np.int64),
        np.concatenate(val_parts) if val_parts else np.zeros(0),
        validate=False,
    )


def merged_output_points(matrices: list[DcsrMatrix]) -> tuple[int, int]:
    """(distinct output rows, distinct output points) of the K-way union.

    One pass over all inputs at once: every stored element becomes a
    packed ``(row << 32) | col`` key and the union sizes fall out of two
    sorted-unique passes — replacing the per-row searchsorted/unique
    loop that previously dominated SpKAdd model building.
    """
    row_parts, key_parts = [], []
    for m in matrices:
        ridx = np.asarray(m.row_idxs, dtype=np.int64)
        row_parts.append(ridx)
        if m.nnz:
            per_row = np.diff(np.asarray(m.ptrs, dtype=np.int64))
            rows = np.repeat(ridx, per_row)
            key_parts.append((rows << 32) | np.asarray(m.idxs, np.int64))
    if not row_parts:
        return 0, 0
    row_points = int(sorted_unique(np.concatenate(row_parts)).size)
    nnz_out = int(sorted_unique(np.concatenate(key_parts)).size
                  ) if key_parts else 0
    return row_points, nnz_out


@operand_memo
def spkadd_streams(*matrices: DcsrMatrix
                   ) -> tuple[tuple[AccessStream, ...], int, int]:
    """The streams the baseline and the TMU model both issue: each
    input's four array walks (``A{x} row_idxs``, ``ptrs``, ``idxs``,
    ``vals``), then the result writes (``Z idxs``, ``Z vals``).
    Returns them with the union's :func:`merged_output_points`."""
    row_points, nnz_out = merged_output_points(matrices)
    space = AddressSpace()
    streams: list[AccessStream] = []
    for x, m in enumerate(matrices):
        row_base = space.place(m.num_nonempty_rows * INDEX_BYTES)
        ptr_base = space.place((m.num_nonempty_rows + 1) * INDEX_BYTES)
        idx_base = space.place(m.nnz * INDEX_BYTES)
        val_base = space.place(m.nnz * VALUE_BYTES)
        rows = Ranges.span(m.num_nonempty_rows)
        nnz = Ranges.span(m.nnz)
        streams.extend([
            AccessStream(rows, INDEX_BYTES, "read", f"A{x} row_idxs",
                         base=row_base, stride=INDEX_BYTES),
            AccessStream(rows, INDEX_BYTES, "read", f"A{x} ptrs",
                         base=ptr_base, stride=INDEX_BYTES),
            AccessStream(nnz, INDEX_BYTES, "read", f"A{x} idxs",
                         base=idx_base, stride=INDEX_BYTES),
            AccessStream(nnz, VALUE_BYTES, "read", f"A{x} vals",
                         base=val_base, stride=VALUE_BYTES),
        ])
    streams.extend(output_streams(space, nnz_out))
    return tuple(streams), row_points, nnz_out


def characterize_spkadd(matrices: list[DcsrMatrix],
                        machine: MachineConfig) -> KernelTrace:
    """Characterize the software K-way merge baseline.

    Every input element passes through the merge network once: a
    compare-tree descent (~log2 K compares), a head advance, and a
    highly data-dependent branch per element — plus the per-row lane
    activation checks on the DCSR row dimension.
    """
    k = len(matrices)
    total_nnz = sum(m.nnz for m in matrices)
    total_rows = sum(m.num_nonempty_rows for m in matrices)
    rows = matrices[0].num_rows if matrices else 0
    log_k = max(1, int(np.ceil(np.log2(max(2, k)))))

    streams, _row_points, nnz_out = spkadd_streams(*matrices)

    return KernelTrace(
        name="spkadd",
        scalar_ops=(2 * log_k + 2) * total_nnz + 6 * total_rows,
        vector_ops=0,
        loads=2 * total_nnz + 3 * total_rows + k * rows // 4,
        stores=2 * nnz_out,
        branches=(log_k + 1) * total_nnz + total_rows + rows,
        datadep_branches=int(0.4 * log_k * total_nnz),
        flops=float(total_nnz - nnz_out),
        streams=list(streams),
        dependent_load_fraction=0.1,
        parallel_units=rows,
    )
