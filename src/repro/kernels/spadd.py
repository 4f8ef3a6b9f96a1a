"""Sparse matrix addition: ``Z_ij = A_ij + B_ij`` (CSR, disjunctive).

The paper's proxy for the *merging* stage (Section 3): each pair of
rows with the same index is joined with a disjunctive merge whose
while/if-then-else structure generates the hard-to-predict branches
that dominate Figure 3's frontend stalls.
"""

from __future__ import annotations

import numpy as np

from ..config import MachineConfig
from ..formats.csr import CsrMatrix
from ..sim.trace import AccessStream, AddressSpace, KernelTrace
from .common import CsrOperand, operand_memo, output_streams, sorted_unique


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
