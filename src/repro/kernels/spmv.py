"""Sparse Matrix-Vector multiplication: ``Z_i = A_ij B_j`` (CSR).

SpMV is the paper's proxy for the *traversal* stage (Section 3): its
inner loop is a memory-intensive scan-and-lookup whose data-dependent
control flow and gather accesses dominate execution.
"""

from __future__ import annotations

import numpy as np

from ..config import MachineConfig
from ..formats.csr import CsrMatrix
from ..sim.trace import AccessStream, AddressSpace, KernelTrace
from ..types import VALUE_BYTES
from .common import (
    CsrOperand,
    operand_memo,
    row_chunk_count,
    sequential_stream,
    sve_lanes,
)


@operand_memo
def spmv_streams(a: CsrMatrix) -> tuple[AccessStream, ...]:
    """The baseline's address streams: they depend on the operand
    only, so a sweep over machines builds them once."""
    space = AddressSpace()
    mat = CsrOperand(space, a)
    vec_base = space.place(a.num_cols * VALUE_BYTES)
    return (
        mat.ptr_stream("row_ptrs"),
        mat.idx_stream("col_idxs"),
        mat.val_stream("nnz_vals"),
        AccessStream(a.idxs, VALUE_BYTES, "read", "b[idx]", dependent=True,
                     gather=True, base=vec_base, stride=VALUE_BYTES),
        sequential_stream(space, a.num_rows, VALUE_BYTES, "write", "x[i]"),
    )


def characterize_spmv(a: CsrMatrix, machine: MachineConfig) -> KernelTrace:
    """Characterize the SVE-vectorized CSR SpMV baseline.

    Per inner-loop chunk of ``VL`` non-zeros the baseline issues: two
    contiguous vector loads (column indexes, values), one vector gather
    (``b[idxs]``), one vector FMA, predicate/induction updates and a
    loop branch.  Per row: pointer loads, reduction tail, and a store.
    """
    lanes = sve_lanes(machine.core.vector_bits)
    rows = a.num_rows
    nnz = a.nnz
    row_nnz = a.row_nnz()
    chunks = row_chunk_count(row_nnz, lanes)
    streams = list(spmv_streams(a))

    # Row-exit branches are only hard to predict when row lengths vary:
    # a TAGE-class predictor locks onto constant trip counts (banded FEM
    # matrices) but not onto irregular ones (power-law, road networks).
    if rows > 1:
        irregular_rows = int(np.count_nonzero(np.diff(row_nnz))) + 1
    else:
        irregular_rows = rows
    return KernelTrace(
        name="spmv",
        scalar_ops=6 * rows,           # ptr arithmetic, sum init, tail
        vector_ops=3 * chunks,         # fma + predicate + induction
        loads=3 * chunks + 2 * rows,   # idx/val/gather + two ptrs
        stores=rows,
        branches=chunks + rows,
        datadep_branches=irregular_rows,
        flops=2.0 * nnz,
        streams=streams,
        dependent_load_fraction=1.0 / 3.0,
        parallel_units=rows,
    )
