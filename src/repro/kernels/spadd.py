"""Sparse matrix addition: ``Z_ij = A_ij + B_ij`` (CSR, disjunctive).

The paper's proxy for the *merging* stage (Section 3): each pair of
rows with the same index is joined with a disjunctive merge whose
while/if-then-else structure generates the hard-to-predict branches
that dominate Figure 3's frontend stalls.
"""

from __future__ import annotations

import numpy as np

from ..config import MachineConfig
from ..errors import WorkloadError
from ..fibers.fiber import Fiber
from ..fibers.merge import disjunctive_merge
from ..formats.csr import CsrMatrix
from ..sim.trace import AccessStream, AddressSpace, KernelTrace
from .common import CsrOperand, operand_memo, output_streams, sorted_unique


def spadd(a: CsrMatrix, b: CsrMatrix) -> CsrMatrix:
    """Reference SpAdd via per-row disjunctive merge."""
    if a.shape != b.shape:
        raise WorkloadError(f"shape mismatch: {a.shape} vs {b.shape}")
    out_ptrs = np.zeros(a.num_rows + 1, dtype=np.int64)
    idx_parts: list[np.ndarray] = []
    val_parts: list[np.ndarray] = []
    for i in range(a.num_rows):
        fa = Fiber(*a.row(i), validate=False)
        fb = Fiber(*b.row(i), validate=False)
        idxs: list[int] = []
        vals: list[float] = []
        for point in disjunctive_merge([fa, fb]):
            idxs.append(point.index)
            vals.append(point.values[0] + point.values[1])
        idx_parts.append(np.asarray(idxs, dtype=np.int64))
        val_parts.append(np.asarray(vals))
        out_ptrs[i + 1] = out_ptrs[i] + len(idxs)
    return CsrMatrix(
        a.shape,
        out_ptrs,
        np.concatenate(idx_parts) if idx_parts else np.zeros(0, np.int64),
        np.concatenate(val_parts) if val_parts else np.zeros(0),
        validate=False,
    )


def spadd_numpy(a: CsrMatrix, b: CsrMatrix) -> CsrMatrix:
    """Vectorized check implementation (via COO concatenation)."""
    if a.shape != b.shape:
        raise WorkloadError(f"shape mismatch: {a.shape} vs {b.shape}")
    from ..formats.convert import coo_to_csr, csr_to_coo
    from ..formats.coo import CooMatrix

    ca, cb = csr_to_coo(a), csr_to_coo(b)
    merged = CooMatrix(
        a.shape,
        np.concatenate((ca.rows, cb.rows)),
        np.concatenate((ca.cols, cb.cols)),
        np.concatenate((ca.values, cb.values)),
    )
    return coo_to_csr(merged)


def merge_counts(a: CsrMatrix, b: CsrMatrix) -> tuple[int, int]:
    """Steps of the row-by-row two-way merge of ``a`` and ``b`` (one
    per output non-zero) and how many of them join a coordinate present
    in both.  Packs every coordinate into one ``row << 32 | col`` key:
    the coordinates both operands hold are the keys the union drops."""
    keys = [(np.repeat(np.arange(m.num_rows, dtype=np.int64),
                       np.diff(m.ptrs)) << 32) | m.idxs.astype(np.int64)
            for m in (a, b)]
    steps = int(sorted_unique(np.concatenate(keys)).size)
    return steps, a.nnz + b.nnz - steps


@operand_memo
def spadd_streams(a: CsrMatrix, b: CsrMatrix
                  ) -> tuple[tuple[AccessStream, ...], int, int]:
    """The operand-only half of :func:`characterize_spadd`: the
    baseline's address streams and its :func:`merge_counts`."""
    steps, both = merge_counts(a, b)
    nnz_out = steps
    space = AddressSpace()
    a_op = CsrOperand(space, a)
    b_op = CsrOperand(space, b)
    streams = (
        a_op.ptr_stream("A ptrs"),
        b_op.ptr_stream("B ptrs"),
        a_op.idx_stream("A idxs"),
        a_op.val_stream("A vals"),
        b_op.idx_stream("B idxs"),
        b_op.val_stream("B vals"),
        *output_streams(space, nnz_out),
    )
    return streams, steps, both


def characterize_spadd(a: CsrMatrix, b: CsrMatrix,
                       machine: MachineConfig) -> KernelTrace:
    """Characterize the scalar two-way merge baseline.

    Merging is inherently serial per row: every output step executes a
    compare, a select, one or two head advances, and a data-dependent
    branch (which way the comparison went is as unpredictable as the
    coordinate interleaving of the inputs).
    """
    streams, steps, both = spadd_streams(a, b)
    rows = a.num_rows
    return KernelTrace(
        name="spadd",
        scalar_ops=7 * steps + 5 * rows,
        vector_ops=0,                    # merge code does not vectorize
        loads=2 * (a.nnz + b.nnz) + 4 * rows,
        stores=2 * steps,               # one output non-zero per step
        branches=3 * steps + rows,
        datadep_branches=2 * steps,
        flops=float(both),
        streams=list(streams),
        dependent_load_fraction=0.15,
        parallel_units=rows,
    )
