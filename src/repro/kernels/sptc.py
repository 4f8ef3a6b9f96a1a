"""Sparse tensor contraction: ``Z_ij = A_ikl B_lkj`` (CSF x CSF).

Follows Sparta (Liu et al.): contract the last two modes of ``A``
against the first two modes of ``B``.  The output is sparse, so the
algorithm runs a *symbolic* phase (size discovery) before the *numeric*
phase; the paper evaluates the symbolic phase, which is pure traversal
and conjunctive merging.
"""

from __future__ import annotations

import numpy as np

from ..config import MachineConfig
from ..formats.csf import CsfTensor
from ..sim.trace import AccessStream, AddressSpace, KernelTrace, Ranges
from ..types import INDEX_BYTES
from .common import operand_memo, sequential_stream


def match_b_fibers(b: CsfTensor, l_coords: np.ndarray,
                   k_coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probe B's fiber directory: for each query ``(l, k)`` pair, the B
    level-1 node holding that fiber of j's (undefined where not found)
    and a found mask.

    CSF coordinate order makes the packed ``l * K + k`` keys of B's
    level-1 nodes globally sorted (root coordinates ascend, and each
    root's k fiber ascends), so one ``searchsorted`` answers every
    probe at once.
    """
    if b.idxs[1].size == 0:
        zeros = np.zeros(l_coords.shape, dtype=np.int64)
        return zeros, np.zeros(l_coords.shape, dtype=bool)
    k_extent = int(b.idxs[1].max()) + 1
    l_of_k = np.repeat(b.idxs[0], np.diff(b.ptrs[1]))
    b_keys = l_of_k * k_extent + b.idxs[1]
    in_range = k_coords < k_extent
    keys = l_coords * k_extent + np.minimum(k_coords, k_extent - 1)
    pos = np.searchsorted(b_keys, keys)
    hit = in_range & (pos < b_keys.size)
    hit[hit] = b_keys[pos[hit]] == keys[hit]
    return pos, hit


@operand_memo
def leaf_scan(a: CsfTensor) -> tuple[AccessStream, int]:
    """The walk over A's leaf coordinates (``A kl idxs``), which the
    baseline and the TMU model both issue first.  Both place A's
    leaves first in one fresh address space; returns the stream with
    the region that follows, where each caller continues placing."""
    space = AddressSpace()
    leaves = sequential_stream(space, a.nnz, INDEX_BYTES, "read",
                               "A kl idxs")
    return leaves, space.next_region


def characterize_sptc(a: CsfTensor, b: CsfTensor,
                      machine: MachineConfig) -> KernelTrace:
    """Characterize the symbolic-phase baseline.

    The hot loop intersects A's (k, l) fibers with B's (l, k) fiber
    directory — a conjunctive merge per level — and unions the matched
    j fibers.  Everything is index traffic; there is no floating-point
    work in the symbolic phase (cf. Figure 12's note that SpTC is
    excluded from the flops roofline).
    """
    k_of_leaf = np.repeat(a.idxs[1], np.diff(a.ptrs[2]))
    pos, hit = match_b_fibers(b, a.idxs[2], k_of_leaf)
    matches = int(hit.sum())
    j_scanned = int((b.ptrs[2][pos[hit] + 1] - b.ptrs[2][pos[hit]]).sum())
    directory_size = int(b.idxs[1].size)

    leaves, next_region = leaf_scan(a)
    space = AddressSpace(next_region)
    nnz_a = a.nnz
    b_dir_base = space.place(directory_size * 2 * INDEX_BYTES)
    b_j_base = space.place(b.nnz * INDEX_BYTES)

    rng = np.random.default_rng(7)
    dir_probe = rng.integers(0, max(1, directory_size), size=nnz_a)

    streams = [
        leaves,
        AccessStream(dir_probe, INDEX_BYTES, "read", "B fiber directory",
                     dependent=True, base=b_dir_base,
                     stride=2 * INDEX_BYTES),
        AccessStream(Ranges.cyclic(j_scanned, max(1, b.nnz)), INDEX_BYTES,
                     "read", "B j fibers", dependent=True, base=b_j_base,
                     stride=INDEX_BYTES),
        sequential_stream(space, max(1, matches), INDEX_BYTES, "write",
                          "Z symbolic"),
    ]
    steps = nnz_a + j_scanned
    return KernelTrace(
        name="sptc",
        scalar_ops=6 * steps,
        vector_ops=0,
        loads=2 * nnz_a + j_scanned + matches,
        stores=matches,
        branches=2 * steps,
        datadep_branches=steps // 2,
        flops=0.0,
        streams=streams,
        dependent_load_fraction=0.5,
        parallel_units=int(a.idxs[0].size),
    )
