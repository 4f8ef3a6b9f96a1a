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
from ..sim.trace import AccessStream, AddressSpace, Gather, KernelTrace, Ranges
from ..types import VALUE_BYTES
from .common import (
    CsrOperand,
    operand_memo,
    output_streams,
    sve_lanes,
)


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


#: Most scanned keys the symbolic pass sorts at once.  A block is a run
#: of whole A rows; a row that scans more keys is a block of its own.
SYMBOLIC_BLOCK_KEYS = 1 << 17


@operand_memo
def _symbolic_counts_fast(a: CsrMatrix, b: CsrMatrix) -> np.ndarray:
    """Symbolic phase: per-row output non-zero counts of ``A @ B``
    (the distinct B columns each A row's scans reach), vectorized for
    characterization of larger inputs."""
    # One packed pass per block of A rows over their B-row scans: each
    # scanned B column is OR-ed into its A row's key ``r << shift``,
    # with ``r`` the row's place in its block, and one sort groups each
    # row's keys into one run with its equal columns adjacent.  Blocks
    # bound what one pass holds to SYMBOLIC_BLOCK_KEYS keys, and a
    # block of at most 2**15 rows packs into int32 (a ~2x faster sort);
    # the int64 fallback requires B column indexes < 2**32 (far beyond
    # simulated inputs).
    starts = b.ptrs[a.idxs]
    lengths = b.ptrs[a.idxs + 1] - starts
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    # row i's keys are offsets[a.ptrs[i]] .. offsets[a.ptrs[i + 1]]
    row_ends = offsets[a.ptrs]
    counts = np.zeros(a.num_rows, dtype=np.int64)
    idxs = b.idxs.astype(np.int32) if b.num_cols <= 1 << 16 else b.idxs
    first = 0
    while first < a.num_rows:
        end = int(np.searchsorted(row_ends, row_ends[first]
                                  + SYMBOLIC_BLOCK_KEYS, side="right")) - 1
        end = max(end, first + 1)
        lo, hi = a.ptrs[first], a.ptrs[end]
        base = int(offsets[lo])
        scan = int(offsets[hi]) - base
        if scan:
            rows = end - first
            small = (rows <= 1 << 15 and b.num_cols <= 1 << 16
                     and max(scan, b.nnz) < 1 << 31)
            dtype, shift = (np.int32, 16) if small else (np.int64, 32)
            # fiber f's j-th scanned position is starts[f] - (offsets[f]
            # - base) + j; the keys first hold the positions, then the
            # columns there
            keys = np.repeat((starts[lo:hi] - (offsets[lo:hi] - base))
                             .astype(dtype), lengths[lo:hi])
            keys += np.arange(scan, dtype=dtype)
            keys = idxs[keys].astype(dtype, copy=False)
            row_scan = np.diff(row_ends[first:end + 1])
            keys |= np.repeat(np.arange(rows, dtype=dtype) << shift,
                              row_scan)
            keys.sort()
            # a row's count is the keys of its run that differ from
            # their predecessor (its first always)
            distinct = np.empty(scan, dtype=dtype)
            distinct[0] = 1
            np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
            runs = row_scan > 0
            counts[first:end][runs] = np.add.reduceat(
                distinct, row_ends[first:end][runs] - base, dtype=dtype)
        first = end
    return counts


@operand_memo
def spmspm_streams(a: CsrMatrix, b: CsrMatrix
                   ) -> tuple[tuple[AccessStream, ...], np.ndarray, int]:
    """The operand-only half of :func:`characterize_spmspm`: the
    baseline's address streams, the B-row length scanned per A
    non-zero, and the output non-zero count."""
    shared, _, next_region = shared_streams(a, b)
    b_rows = shared[3].index    # the B-row scans' Ranges
    space = AddressSpace(next_region)
    # Output row assembly touches each produced non-zero ~twice
    # (accumulate + gather-out); symbolic counts give its footprint.
    nnz_out = int(_symbolic_counts_fast(a, b).sum())
    outputs = output_streams(space, nnz_out)
    acc_base = space.place(b.num_cols * VALUE_BYTES)
    streams = (
        *shared,
        AccessStream(Gather(b.idxs, b_rows), VALUE_BYTES, "read",
                     "accumulator", dependent=True, base=acc_base,
                     stride=VALUE_BYTES),
        *outputs,
    )
    return streams, b_rows.lengths, nnz_out


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
