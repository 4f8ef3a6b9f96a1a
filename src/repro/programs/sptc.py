"""SpTC on the TMU (Table 4 row "SpTC").

``Z_ij = A_ikl B_lkj``: the contraction modes of each ``i`` slice of
``A`` are intersected (``ConjMrg``) against ``B``'s fiber directory,
and every match streams the corresponding ``j`` fiber.  To fit the
engine's four layers, the two contraction levels are co-iterated over a
*linearized composite key* ``k·L + l`` — a flattened view of the CSF
levels that the format abstraction permits (a fused compressed level),
matching how Sparta's hash directory exposes (l, k) fibers.

Only the symbolic phase is computed (as in the paper's evaluation): the
core counts distinct ``j`` hits per output row.
"""

from __future__ import annotations

import numpy as np

from ..config import MachineConfig
from ..errors import WorkloadError
from ..formats.csf import CsfTensor
from ..kernels.common import sequential_stream
from ..kernels.sptc import leaf_scan, match_b_fibers
from ..sim.machine import TmuWorkloadModel
from ..sim.trace import AccessStream, AddressSpace, KernelTrace, Ranges
from ..tmu.program import Event, LayerMode, Program, ScalarOperand
from ..types import INDEX_BYTES, stable_order
from .common import BuiltProgram, record_bytes


def _linearize_contraction(a: CsfTensor) -> tuple[np.ndarray, np.ndarray,
                                                  np.ndarray]:
    """Per-root-slice flattened (k, l) composite keys of ``A_ikl``.

    Returns (leaf_beg, leaf_end, keys): leaf position ranges per root
    node, and the composite key ``k·L + l`` for every leaf.
    """
    big_l = a.shape[2]
    k_of_leaf = np.repeat(a.idxs[1], np.diff(a.ptrs[2]))
    keys = k_of_leaf * big_l + a.idxs[2]
    # leaf range per root node: compose ptrs[1] and ptrs[2]
    leaf_beg = a.ptrs[2][a.ptrs[1][:-1]]
    leaf_end = a.ptrs[2][a.ptrs[1][1:]]
    return leaf_beg, leaf_end, keys


def _directory(b: CsfTensor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """B's fiber directory sorted by the same composite key: for each
    (l, k) fiber of ``B_lkj``, its key ``k·L + l`` and j-fiber bounds."""
    big_l = b.shape[0]
    l_of_node = np.repeat(b.idxs[0], np.diff(b.ptrs[1]))
    keys = b.idxs[1] * big_l + l_of_node
    order = stable_order(keys, b.shape[1] * big_l)
    return (keys[order], b.ptrs[2][:-1][order], b.ptrs[2][1:][order])


def build_sptc_program(a: CsfTensor, b: CsfTensor,
                       name: str = "sptc") -> BuiltProgram:
    """Build the runnable SpTC (symbolic) program."""
    if a.ndim != 3 or b.ndim != 3:
        raise WorkloadError("the SpTC program expects order-3 CSF tensors")
    if a.shape[1] != b.shape[1] or a.shape[2] != b.shape[0]:
        raise WorkloadError("contraction dimensions of A and B must match")
    leaf_beg, leaf_end, a_keys = _linearize_contraction(a)
    dir_keys, dir_jbeg, dir_jend = _directory(b)

    prog = Program(name, lanes=2, max_layers=4)
    a_i = prog.place_array(a.idxs[0], INDEX_BYTES, "A->idxs0")
    a_lb = prog.place_array(leaf_beg, INDEX_BYTES, "A->leaf_beg")
    a_le = prog.place_array(leaf_end, INDEX_BYTES, "A->leaf_end")
    a_key = prog.place_array(a_keys, INDEX_BYTES, "A->kl_keys")
    d_key = prog.place_array(dir_keys, INDEX_BYTES, "B->dir_keys")
    d_jb = prog.place_array(dir_jbeg, INDEX_BYTES, "B->dir_jbeg")
    d_je = prog.place_array(dir_jend, INDEX_BYTES, "B->dir_jend")
    b_j = prog.place_array(b.idxs[2], INDEX_BYTES, "B->idxs2")

    l0 = prog.add_layer(LayerMode.BCAST)
    root = l0.dns_fbrt(beg=0, end=int(a.idxs[0].size))
    i_coord = root.add_mem_stream(a_i, name="i")
    lb = root.add_mem_stream(a_lb, name="kl_beg")
    le = root.add_mem_stream(a_le, name="kl_end")
    l0.add_callback(Event.GBEG, "sb", [])
    l0.set_volume_hint(a.idxs[0].size)

    l1 = prog.add_layer(LayerMode.CONJ_MRG)
    a_fib = l1.rng_fbrt(beg=lb, end=le)
    a_k = a_fib.add_mem_stream(a_key, name="a_kl")
    a_fib.set_merge_key(a_k)
    # Pad lane 0 to the directory lane's stream count: all TUs of a
    # layer instantiate the same streams (Section 5.5).
    a_fib.add_lin_stream(0, 0, name="pad0")
    a_fib.add_lin_stream(0, 0, name="pad1")
    dir_fib = l1.dns_fbrt(beg=0, end=int(dir_keys.size))
    d_k = dir_fib.add_mem_stream(d_key, name="d_kl")
    jb = dir_fib.add_mem_stream(d_jb, name="j_beg")
    je = dir_fib.add_mem_stream(d_je, name="j_end")
    dir_fib.set_merge_key(d_k)
    l1.set_volume_hint(a.nnz + a.idxs[0].size * max(1, dir_keys.size))

    l2 = prog.add_layer(LayerMode.KEEP)
    l2.keep_lane = 1                           # keep the B-side lane
    pad = l2.rng_fbrt(beg=lb, end=lb)          # lane 0: A side has no j
    pad.add_mem_stream(b_j, name="pad")
    jfib = l2.rng_fbrt(beg=jb, end=je)         # lane 1: B's j fiber
    j_coord = jfib.add_mem_stream(b_j, name="j")
    l2.add_callback(Event.GITE, "hit", [ScalarOperand(i_coord),
                                        ScalarOperand(j_coord)])
    l2.set_volume_hint(b.nnz)

    rows: dict[int, set[int]] = {}

    def sb(record):
        pass  # slice begin: nothing to do in the symbolic phase

    def hit(record):
        i, j = record.operands
        rows.setdefault(int(i), set()).add(int(j))

    def result():
        counts = np.zeros(int(a.idxs[0].size), dtype=np.int64)
        order = {int(c): n for n, c in enumerate(a.idxs[0])}
        for i, js in rows.items():
            counts[order[i]] = len(js)
        return counts

    return BuiltProgram(
        program=prog,
        handlers={"sb": sb, "hit": hit},
        result=result,
        description="SpTC symbolic: ConjMrg over linearized (k,l) keys",
    )


def sptc_timing_model(a: CsfTensor, b: CsfTensor,
                      machine: MachineConfig, *,
                      name: str = "sptc") -> TmuWorkloadModel:
    """Analytic TMU workload model for the SpTC symbolic phase.

    Timing follows the scan-and-lookup mapping the evaluation needs on
    hypersparse tensors: a dense auxiliary index over ``l`` (the
    symbolic phase materializes one, as Sparta's directory does) gives
    ``B_l``'s k-fiber bounds in O(1), and only the k-fiber is merged
    conjunctively against the single current ``k`` — so merge work is
    ``Σ |B_l k-fiber|/2`` over A's leaves, not a directory rescan per
    slice.  The runnable program in :func:`build_sptc_program` uses the
    simpler (but rescan-heavy) linearized-directory formulation, which
    is exact functionally.
    """
    # Per A leaf (k, l): probe the dense l-index, then walk half of
    # B_l's k-fiber on average; on a k match, stream the j fiber.
    # All three tallies vectorize: the l probes are one searchsorted
    # against B's (sorted) root coordinates, and the (l, k) matches use
    # the shared packed-key probe.
    num_l = int(b.idxs[0].size)
    k_of_leaf = np.repeat(a.idxs[1], np.diff(a.ptrs[2]))
    if num_l and a.nnz:
        l_node = np.searchsorted(b.idxs[0], a.idxs[2])
        safe = np.minimum(l_node, num_l - 1)
        l_found = (l_node < num_l) & (b.idxs[0][safe] == a.idxs[2])
        fibers = (b.ptrs[1][1:] - b.ptrs[1][:-1])[safe[l_found]]
        merge_elements = int(np.maximum(1, fibers // 2).sum()
                             + np.count_nonzero(~l_found))
    else:
        merge_elements = int(a.nnz)
    pos, hit = match_b_fibers(b, a.idxs[2], k_of_leaf)
    matches = int(hit.sum())
    j_scanned = int((b.ptrs[2][pos[hit] + 1] - b.ptrs[2][pos[hit]]).sum())

    leaves, next_region = leaf_scan(a)
    space = AddressSpace(next_region)
    l_index_base = space.place(max(1, b.shape[0]) * INDEX_BYTES)
    k_scan_base = space.place(max(1, b.idxs[1].size) * INDEX_BYTES)
    b_j_base = space.place(max(1, b.nnz) * INDEX_BYTES)

    # dense-index probes at l; the k and j scans wrap around B's arrays
    streams = [
        leaves,
        AccessStream(a.idxs[2], INDEX_BYTES, "read", "B l-index",
                     dependent=True, base=l_index_base, stride=INDEX_BYTES),
        AccessStream(Ranges.cyclic(merge_elements, max(1, b.idxs[1].size)),
                     INDEX_BYTES, "read", "B k fibers", dependent=True,
                     base=k_scan_base, stride=INDEX_BYTES),
        AccessStream(Ranges.cyclic(j_scanned, max(1, b.nnz)), INDEX_BYTES,
                     "read", "B j fibers", dependent=True, base=b_j_base,
                     stride=INDEX_BYTES),
    ]
    outq_bytes = (j_scanned * record_bytes(0, 0, num_scalar_operands=2)
                  + matches * 4)
    core_trace = KernelTrace(
        name=f"{name}-callbacks",
        # the symbolic set insertion per streamed j is the same work the
        # baseline does: hash, probe, insert
        scalar_ops=5 * j_scanned + 2 * matches,
        vector_ops=0,
        loads=2 * j_scanned,
        stores=j_scanned,
        branches=j_scanned + matches,
        datadep_branches=j_scanned // 4,
        flops=0.0,
        streams=[sequential_stream(space, max(1, matches), INDEX_BYTES,
                                   "write", "Z symbolic")],
        dependent_load_fraction=0.1,
        parallel_units=int(a.idxs[0].size),
    )
    return TmuWorkloadModel(
        name=name,
        tmu_streams=streams,
        layer_elements=[int(a.idxs[0].size), merge_elements, j_scanned],
        layer_lanes=[1, 2, 2],
        merge_steps=int(merge_elements / 1.6),
        outq_records=j_scanned + matches,
        outq_bytes=outq_bytes,
        core_trace=core_trace,
    )
