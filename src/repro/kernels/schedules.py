"""SpMSpM loop schedules (paper Section 2.1).

The paper notes that matrix multiplication admits three classic index
schedules, each traversing and combining different fibers:

* ``ijk`` — inner product: every (i, j) output intersects a row of A
  with a column of B (conjunctive merge per output);
* ``kij`` — outer product: every k pairs a column of A with a row of B,
  producing rank-1 updates merged into the output;
* ``ikj`` — Gustavson/dataflow: rows of B selected by A's non-zeros
  accumulate into the output row (the schedule the evaluation uses,
  implemented in :mod:`repro.kernels.spmspm`).

All three compute the same product; they differ in which format
orientations they need and how much merging they do — exactly the
trade-off the TMU's format-completeness is about.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError
from ..fibers.fiber import Fiber
from ..fibers.merge import conjunctive_merge
from ..formats.coo import CooMatrix
from ..formats.convert import coo_to_csr
from ..formats.csr import CsrMatrix


def spmspm_inner_product(a: CsrMatrix, b: CsrMatrix) -> CsrMatrix:
    """``ijk`` schedule: conjunctively merge row ``A_i*`` with column
    ``B_*j`` for every candidate output coordinate.

    Requires B in column-major orientation (we transpose internally,
    i.e. use CSC of B).  Asymptotically the worst schedule for sparse
    outputs — every candidate pair pays a merge — which is why it is
    the proxy for merge-heavy inner loops.
    """
    if a.num_cols != b.num_rows:
        raise WorkloadError("inner dimensions of A and B do not match")
    b_csc = b.transpose()  # rows of b_csc are columns of B
    out_ptrs = np.zeros(a.num_rows + 1, dtype=np.int64)
    idx_parts: list[int] = []
    val_parts: list[float] = []
    for i in range(a.num_rows):
        a_idx, a_val = a.row(i)
        if a_idx.size == 0:
            out_ptrs[i + 1] = out_ptrs[i]
            continue
        row_fiber = Fiber(a_idx, a_val, validate=False)
        count = 0
        # candidate columns: those with any nonzero in B's rows A_i hits
        for j in range(b.num_cols):
            col_fiber = Fiber(*b_csc.row(j), validate=False)
            if col_fiber.nnz == 0:
                continue
            acc = 0.0
            hit = False
            for point in conjunctive_merge([row_fiber, col_fiber]):
                acc += point.values[0] * point.values[1]
                hit = True
            if hit and acc != 0.0:
                idx_parts.append(j)
                val_parts.append(acc)
                count += 1
        out_ptrs[i + 1] = out_ptrs[i] + count
    return CsrMatrix(
        (a.num_rows, b.num_cols), out_ptrs,
        np.asarray(idx_parts, dtype=np.int64),
        np.asarray(val_parts), validate=False)


def spmspm_outer_product(a: CsrMatrix, b: CsrMatrix) -> CsrMatrix:
    """``kij`` schedule: for every k, the outer product of column
    ``A_*k`` and row ``B_k*`` contributes a rank-1 update; all updates
    are merged (here: COO assembly with duplicate summing, the
    merge-tree a hardware implementation like OuterSPACE would use)."""
    if a.num_cols != b.num_rows:
        raise WorkloadError("inner dimensions of A and B do not match")
    a_csc = a.transpose()  # rows of a_csc are columns of A
    rows_parts: list[np.ndarray] = []
    cols_parts: list[np.ndarray] = []
    vals_parts: list[np.ndarray] = []
    for k in range(a.num_cols):
        col_idx, col_val = a_csc.row(k)
        row_idx, row_val = b.row(k)
        if col_idx.size == 0 or row_idx.size == 0:
            continue
        rows_parts.append(np.repeat(col_idx, row_idx.size))
        cols_parts.append(np.tile(row_idx, col_idx.size))
        vals_parts.append(np.outer(col_val, row_val).ravel())
    if not rows_parts:
        return CsrMatrix((a.num_rows, b.num_cols),
                         np.zeros(a.num_rows + 1, dtype=np.int64),
                         [], [], validate=False)
    coo = CooMatrix(
        (a.num_rows, b.num_cols),
        np.concatenate(rows_parts),
        np.concatenate(cols_parts),
        np.concatenate(vals_parts),
    )
    return coo_to_csr(coo)


def schedule_merge_work(a: CsrMatrix, b: CsrMatrix) -> dict[str, int]:
    """Analytic merge/traversal element counts per schedule — the
    numbers that explain why Gustavson wins on sparse outputs and why
    the paper evaluates it."""
    b_csc_counts = np.bincount(b.idxs, minlength=b.num_cols)
    a_csc_counts = np.bincount(a.idxs, minlength=a.num_cols)
    b_row_counts = np.diff(b.ptrs)

    inner = int(a.num_rows * b_csc_counts.sum()
                + b.num_cols * a.nnz)           # every (i, j) co-scan
    outer = int((a_csc_counts * b_row_counts).sum())  # rank-1 volume
    gustavson = int(b_row_counts[a.idxs].sum())       # scanned rows
    return {"ijk": inner, "kij": outer, "ikj": gustavson}
