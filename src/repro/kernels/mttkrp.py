"""MTTKRP: Matricized Tensor Times Khatri-Rao Product (COO).

``Z_ij = Σ_{k,l} A_ikl B_kj C_lj`` for an order-3 sparse tensor ``A``
and dense factor matrices ``B`` and ``C``.  This is the workhorse of
CP-ALS tensor decomposition; the paper uses the GenTen/Phipps-Kolda COO
formulation with permutation optimization (non-zeros sorted by the
output mode so partial results accumulate into one row at a time).
"""

from __future__ import annotations

import numpy as np

from ..config import MachineConfig
from ..errors import WorkloadError
from ..formats.coo import CooTensor
from ..sim.trace import AccessStream, AddressSpace, KernelTrace, Ranges
from ..types import INDEX_BYTES, VALUE_BYTES
from .common import ceil_div, operand_memo, sve_lanes


def mttkrp(tensor: CooTensor, b, c, mode: int = 0) -> np.ndarray:
    """Reference MTTKRP for an order-3 COO tensor.

    ``mode`` selects the output mode (0 → ``Z_ij = A_ikl B_kj C_lj``);
    the other two modes' coordinates index the factor matrices.
    """
    if tensor.ndim != 3:
        raise WorkloadError("mttkrp reference expects an order-3 tensor")
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    modes = [m for m in range(3) if m != mode]
    if b.shape[0] != tensor.shape[modes[0]]:
        raise WorkloadError("factor B rows must match tensor mode extent")
    if c.shape[0] != tensor.shape[modes[1]]:
        raise WorkloadError("factor C rows must match tensor mode extent")
    if b.shape[1] != c.shape[1]:
        raise WorkloadError("factor ranks must agree")
    rank = b.shape[1]
    out = np.zeros((tensor.shape[mode], rank))
    i = tensor.coords[mode]
    k = tensor.coords[modes[0]]
    l = tensor.coords[modes[1]]
    np.add.at(out, i, tensor.values[:, None] * b[k] * c[l])
    return out


@operand_memo
def coo_streams(tensor: CooTensor) -> tuple[tuple[AccessStream, ...], int]:
    """The walks over the tensor's COO arrays, which the baseline and
    the TMU model both issue: its three coordinate arrays and its
    values (``coords i``, ``coords k``, ``coords l``, ``A vals``), over
    one index.  Both place them first in one fresh address space;
    returns them with the region that follows, where each caller
    continues placing."""
    nnz = tensor.nnz
    space = AddressSpace()
    coord_bases = [space.place(nnz * INDEX_BYTES) for _ in range(3)]
    val_base = space.place(nnz * VALUE_BYTES)
    walk = Ranges.span(nnz)
    streams = (
        *(AccessStream(walk, INDEX_BYTES, "read", f"coords {mode}",
                       base=base, stride=INDEX_BYTES)
          for base, mode in zip(coord_bases, "ikl")),
        AccessStream(walk, VALUE_BYTES, "read", "A vals", base=val_base,
                     stride=VALUE_BYTES),
    )
    return streams, space.next_region


def factor_rows(rows: np.ndarray, rank: int, chunk: int
                ) -> tuple[np.ndarray | Ranges, int]:
    """Index and byte stride of the reads of one ``rank``-wide factor
    row per entry of ``rows``, one read per ``chunk`` elements: each
    row's range of chunks when ``chunk`` divides the rank, else the
    element position of every read."""
    if rank % chunk == 0:
        per_row = rank // chunk
        starts = rows * per_row
        return (Ranges(starts, np.broadcast_to(per_row, starts.shape)),
                chunk * VALUE_BYTES)
    reads = ceil_div(rank, chunk)
    offsets = np.arange(reads, dtype=np.int64) * chunk
    return (np.repeat(rows * rank, reads) + np.tile(offsets, rows.size),
            VALUE_BYTES)


@operand_memo
def mttkrp_streams(tensor: CooTensor, rank: int, lanes: int
                   ) -> tuple[AccessStream, ...]:
    """The baseline's address streams.  They depend on the tensor, the
    rank and the SVE lanes, not on the parallel scheme, so MTTKRP P1,
    P2 and CP-ALS walk one set of read-only indexes."""
    coords, next_region = coo_streams(tensor)
    space = AddressSpace(next_region)
    b_base = space.place(tensor.shape[1] * rank * VALUE_BYTES)
    c_base = space.place(tensor.shape[2] * rank * VALUE_BYTES)
    out_base = space.place(tensor.shape[0] * rank * VALUE_BYTES)
    vec_bytes = min(64, lanes * VALUE_BYTES)
    # One sampled address per rank-chunk per factor row.
    b_rows, stride = factor_rows(tensor.coords[1], rank, lanes)
    c_rows, _ = factor_rows(tensor.coords[2], rank, lanes)
    # the output row is read, updated and written at the same addresses
    z_rows, _ = factor_rows(tensor.coords[0], rank, lanes)
    return (
        *coords,
        # Factor-row gathers: only the first chunk of each row is
        # address-dependent; later chunks stream sequentially, so the
        # stream is not marked dependent (the trace-level
        # dependent_load_fraction captures the per-row serialization).
        AccessStream(b_rows, vec_bytes, "read", "B[k,:]", base=b_base,
                     stride=stride),
        AccessStream(c_rows, vec_bytes, "read", "C[l,:]", base=c_base,
                     stride=stride),
        AccessStream(z_rows, vec_bytes, "read", "Z[i,:] rmw", base=out_base,
                     stride=stride),
        AccessStream(z_rows, vec_bytes, "write", "Z[i,:]", base=out_base,
                     stride=stride),
    )


def characterize_mttkrp(tensor: CooTensor, rank: int,
                        machine: MachineConfig,
                        parallel_mode: str = "mode") -> KernelTrace:
    """Characterize the permuted COO MTTKRP baseline.

    Per non-zero the kernel gathers one row of each factor (rank-wide
    vector loads), multiplies them element-wise, scales by the tensor
    value and accumulates into the output row — ``3 x rank`` flops.

    ``parallel_mode`` mirrors Table 4's two TMU variants: ``'mode'``
    (P1, parallelize the non-zero loop) and ``'rank'`` (P2, parallelize
    the rank loop).
    """
    if tensor.ndim != 3:
        raise WorkloadError("characterize_mttkrp expects an order-3 tensor")
    if parallel_mode not in ("mode", "rank"):
        raise WorkloadError(f"unknown parallel_mode {parallel_mode!r}")
    lanes = sve_lanes(machine.core.vector_bits)
    nnz = tensor.nnz
    total_chunks = nnz * ceil_div(rank, lanes)
    return KernelTrace(
        name=f"mttkrp_{parallel_mode}",
        scalar_ops=8 * nnz,
        vector_ops=3 * total_chunks,          # two muls + one add
        loads=3 * total_chunks + 4 * nnz,
        stores=total_chunks,
        branches=total_chunks + nnz,
        datadep_branches=nnz // 8,            # output-row change detection
        flops=3.0 * nnz * rank,
        streams=list(mttkrp_streams(tensor, rank, lanes)),
        dependent_load_fraction=0.6,
        parallel_units=int(tensor.shape[0]),
    )
