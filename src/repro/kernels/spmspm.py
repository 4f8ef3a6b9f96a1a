"""Gustavson sparse-matrix x sparse-matrix product (CSR, ikj schedule).

``Z_ij = A_ik B_kj``: for every non-zero ``A_ik`` the kernel scans the
whole row ``B_k*`` and reduces (accumulates) the scaled rows into the
output row — the paper's proxy for the *computation* stage, with a
symbolic/numeric two-phase structure because the output is compressed
(Section 2.5).  The evaluation instantiates ``Z = A Aᵀ``.
"""

from __future__ import annotations

import numpy as np

from ..config import MachineConfig
from ..formats.csr import CsrMatrix
from ..sim.trace import AccessStream, AddressSpace, KernelTrace, Ranges
from ..types import VALUE_BYTES
from .common import (
    CsrOperand,
    operand_memo,
    output_streams,
    sorted_unique,
    sve_lanes,
)


@operand_memo
def scan_columns(a: CsrMatrix, b: CsrMatrix) -> np.ndarray:
    """The B column indexes visited by the Gustavson B-row scans (the
    rows of ``b`` that ``a``'s column indexes select), in traversal
    order.

    The accumulator stream and the symbolic counts both read them, so
    they are built once per operand pair; the scan positions they are
    gathered at are not kept.
    """
    return b.idxs[Ranges.fibers(b.ptrs, a.idxs).expand()]


@operand_memo
def shared_streams(a: CsrMatrix, b: CsrMatrix
                   ) -> tuple[tuple[AccessStream, ...], int, int]:
    """The streams the baseline and the TMU model both issue: A's three
    array walks (``A ptrs``, ``A idxs``, ``A vals``) and the B-row
    scans over B's index and value arrays (``B idxs scan``, ``B vals
    scan``, one :class:`~repro.sim.trace.Ranges` of B's rows).

    Both place A's three arrays and then B's three in one fresh
    address space, so these streams have one content, built once.
    Returns them with B's row-pointer base and the region after B's
    arrays, where each caller continues placing.
    """
    space = AddressSpace()
    a_op = CsrOperand(space, a)
    b_op = CsrOperand(space, b)
    b_rows = Ranges.fibers(b.ptrs, a.idxs)
    streams = (
        a_op.ptr_stream("A ptrs"),
        a_op.idx_stream("A idxs"),
        a_op.val_stream("A vals"),
        b_op.idx_stream("B idxs scan", b_rows, dependent=True),
        b_op.val_stream("B vals scan", b_rows, dependent=True),
    )
    return streams, b_op.ptrs_base, space.next_region


@operand_memo
def _symbolic_counts_fast(a: CsrMatrix, b: CsrMatrix) -> np.ndarray:
    """Symbolic phase: per-row output non-zero counts of ``A @ B``
    (the distinct B columns each A row's scans reach), vectorized for
    characterization of larger inputs."""
    # Expand every (A row i, B row k) pairing into packed
    # ``i << shift | col`` keys and take one global unique — the
    # per-row distinct-column counts drop out of the keys' high
    # halves.  Small operands pack into int32 (a ~2x faster sort);
    # the int64 fallback requires B column indexes < 2**32 (far
    # beyond simulated inputs).
    row_of = np.repeat(np.arange(a.num_rows, dtype=np.int64),
                       np.diff(a.ptrs))
    blk = np.diff(b.ptrs)[a.idxs]
    cols = scan_columns(a, b)
    if cols.size == 0:
        return np.zeros(a.num_rows, dtype=np.int64)
    i_rep = np.repeat(row_of, blk)
    if a.num_rows <= 1 << 15 and b.num_cols <= 1 << 16:
        uniq = sorted_unique((i_rep.astype(np.int32) << 16)
                             | cols.astype(np.int32))
        return np.bincount(uniq >> 16,
                           minlength=a.num_rows).astype(np.int64)
    uniq = sorted_unique((i_rep << 32) | cols)
    return np.bincount(uniq >> 32, minlength=a.num_rows).astype(np.int64)


@operand_memo
def spmspm_streams(a: CsrMatrix, b: CsrMatrix
                   ) -> tuple[tuple[AccessStream, ...], np.ndarray, int]:
    """The operand-only half of :func:`characterize_spmspm`: the
    baseline's address streams, the B-row length scanned per A
    non-zero, and the output non-zero count."""
    shared, _, next_region = shared_streams(a, b)
    space = AddressSpace(next_region)
    # Output row assembly touches each produced non-zero ~twice
    # (accumulate + gather-out); symbolic counts give its footprint.
    nnz_out = int(_symbolic_counts_fast(a, b).sum())
    outputs = output_streams(space, nnz_out)
    acc_base = space.place(b.num_cols * VALUE_BYTES)
    streams = (
        *shared,
        AccessStream(scan_columns(a, b), VALUE_BYTES, "read", "accumulator",
                     dependent=True, base=acc_base, stride=VALUE_BYTES),
        *outputs,
    )
    scanned = np.diff(b.ptrs)[a.idxs]    # B-row lengths per A non-zero
    return streams, scanned, nnz_out


def characterize_spmspm(a: CsrMatrix, b: CsrMatrix,
                        machine: MachineConfig) -> KernelTrace:
    """Characterize the SVE Gustavson baseline on ``Z = A B``.

    The dominant loop scans rows of ``B`` selected by column indexes of
    ``A`` (a scan-and-lookup with whole-row spatial locality) and
    accumulates scaled rows — flops = 2 x Σ nnz(B row k) over all A
    non-zeros.
    """
    streams, scanned, nnz_out = spmspm_streams(a, b)
    lanes = sve_lanes(machine.core.vector_bits)
    rows, nnz_a = a.num_rows, a.nnz
    total_scanned = int(scanned.sum())
    inner_chunks = int(np.sum(-(-scanned // lanes)))
    return KernelTrace(
        name="spmspm",
        scalar_ops=8 * nnz_a + 6 * rows + 4 * nnz_out,
        vector_ops=3 * inner_chunks,
        loads=3 * inner_chunks + 3 * nnz_a + 2 * rows + nnz_out,
        stores=inner_chunks + 2 * nnz_out,
        branches=inner_chunks + nnz_a + rows,
        datadep_branches=nnz_a,
        flops=2.0 * total_scanned,
        streams=list(streams),
        dependent_load_fraction=0.55,
        parallel_units=rows,
    )
