"""SpMM on the TMU (Table 4 rows "SpMM P0/P1/P2").

``Z_ij = A_ik B_kj`` with CSR ``A`` and dense row-major ``B``: the
compressed ``k`` traversal loads A's column indexes, a ``lin`` stream
turns each index into the base position of row ``B[k, :]``, and an
``IdxFbrT`` layer scans that row, parallelized across lanes (the P2
scheme: rank/column-level parallelism)."""

from __future__ import annotations

import numpy as np

from ..formats.csr import CsrMatrix
from ..tmu.program import Event, LayerMode, Program
from ..types import INDEX_BYTES, VALUE_BYTES
from .common import BuiltProgram, check_contracted


def build_spmm_program(a: CsrMatrix, b, *, lanes: int = 2,
                       name: str = "spmm") -> BuiltProgram:
    """Build the runnable SpMM program (inner j-loop parallelized)."""
    b = np.asarray(b, dtype=np.float64)
    check_contracted("SpMM", a.num_cols, len(b))
    num_cols_b = b.shape[1]
    b_flat = np.ascontiguousarray(b.reshape(-1))

    prog = Program(name, lanes=max(1, lanes))
    ptrs = prog.place_array(a.ptrs, INDEX_BYTES, "a->ptrs")
    idxs = prog.place_array(a.idxs, INDEX_BYTES, "a->idxs")
    vals = prog.place_array(a.vals, VALUE_BYTES, "a->vals")
    bmat = prog.place_array(b_flat, VALUE_BYTES, "B")

    l0 = prog.add_layer(LayerMode.BCAST)
    row = l0.dns_fbrt(beg=0, end=a.num_rows)
    ptbs = row.add_mem_stream(ptrs, name="row_ptbs")
    ptes = row.add_mem_stream(ptrs, offset=1, name="row_ptes")
    l0.set_volume_hint(a.num_rows)

    l1 = prog.add_layer(LayerMode.BCAST)
    kk = l1.rng_fbrt(beg=ptbs, end=ptes)
    k_idx = kk.add_mem_stream(idxs, name="k_idx")
    a_val = kk.add_mem_stream(vals, name="a_val")
    # base position of row B[k, :] in the flattened matrix
    b_row_beg = kk.add_lin_stream(num_cols_b, 0, parent=k_idx,
                                  name="b_row_beg")
    l1.set_volume_hint(a.nnz)

    mode2 = LayerMode.LOCKSTEP if lanes > 1 else LayerMode.SINGLE
    l2 = prog.add_layer(mode2)
    b_streams = []
    for lane in range(lanes):
        jj = l2.idx_fbrt(beg=b_row_beg, size=num_cols_b, offset=lane,
                         stride=lanes)
        b_streams.append(jj.add_mem_stream(bmat, name=f"b_val{lane}"))
    b_vals = l2.vec_operand(b_streams)
    l2.add_callback(Event.GITE, "ji", [b_vals, l2.mask_operand()])
    l1.add_callback(Event.GITE, "ki", [l1.vec_operand([a_val])])
    l1.add_callback(Event.GEND, "ke", [])
    l2.set_volume_hint(a.nnz * num_cols_b)

    out = np.zeros((a.num_rows, num_cols_b))
    state = {"row": 0, "a_val": 0.0, "j": 0}

    def ki(record):
        state["a_val"] = record.operands[0][0]
        state["j"] = 0

    def ji(record):
        bv, mask = record.operands
        for k in range(len(bv)):
            if mask & (1 << k):
                out[state["row"], state["j"] + k] += state["a_val"] * bv[k]
        state["j"] += len(bv)

    def ke(record):
        state["row"] += 1

    return BuiltProgram(
        program=prog,
        handlers={"ki": ki, "ji": ji, "ke": ke},
        result=lambda: out.copy(),
        description="SpMM CSR x dense, inner-column vectorization",
    )
