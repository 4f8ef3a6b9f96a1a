"""SpTTM on the TMU (Table 4 row "SpTTM").

``Z_ijr = A_ijk B_kr``: the CSF walk of SpTTV plus an innermost dense
layer scanning row ``B[k, :]`` per leaf — four layers, the engine's
full depth.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError
from ..formats.csf import CsfTensor
from ..tmu.program import Event, LayerMode, Program, ScalarOperand
from ..types import INDEX_BYTES, VALUE_BYTES
from .common import BuiltProgram, check_contracted


def build_spttm_program(a: CsfTensor, b,
                        name: str = "spttm") -> BuiltProgram:
    """Build the runnable SpTTM program (rank loop on layer 3)."""
    if a.ndim != 3:
        raise WorkloadError("the SpTTM program expects an order-3 CSF")
    b = np.asarray(b, dtype=np.float64)
    check_contracted("SpTTM", a.shape[2], len(b))
    rank = b.shape[1]
    b_flat = np.ascontiguousarray(b.reshape(-1))

    prog = Program(name, lanes=1, max_layers=4)
    idx0 = prog.place_array(a.idxs[0], INDEX_BYTES, "A->idxs0")
    ptr1 = prog.place_array(a.ptrs[1], INDEX_BYTES, "A->ptrs1")
    idx1 = prog.place_array(a.idxs[1], INDEX_BYTES, "A->idxs1")
    ptr2 = prog.place_array(a.ptrs[2], INDEX_BYTES, "A->ptrs2")
    idx2 = prog.place_array(a.idxs[2], INDEX_BYTES, "A->idxs2")
    vals = prog.place_array(a.vals, VALUE_BYTES, "A->vals")
    bmat = prog.place_array(b_flat, VALUE_BYTES, "B")

    l0 = prog.add_layer(LayerMode.SINGLE)
    root = l0.dns_fbrt(beg=0, end=int(a.idxs[0].size))
    i_coord = root.add_mem_stream(idx0, name="i")
    jb = root.add_mem_stream(ptr1, name="j_beg")
    je = root.add_mem_stream(ptr1, offset=1, name="j_end")
    l0.set_volume_hint(a.idxs[0].size)

    l1 = prog.add_layer(LayerMode.SINGLE)
    jfib = l1.rng_fbrt(beg=jb, end=je)
    j_coord = jfib.add_mem_stream(idx1, name="j")
    kb = jfib.add_mem_stream(ptr2, name="k_beg")
    ke = jfib.add_mem_stream(ptr2, offset=1, name="k_end")
    l1.set_volume_hint(a.idxs[1].size)

    l2 = prog.add_layer(LayerMode.SINGLE)
    kfib = l2.rng_fbrt(beg=kb, end=ke)
    k_coord = kfib.add_mem_stream(idx2, name="k")
    a_val = kfib.add_mem_stream(vals, name="a_val")
    b_row = kfib.add_lin_stream(rank, 0, parent=k_coord, name="b_row")
    l2.add_callback(Event.GITE, "kb", [l2.vec_operand([a_val])])
    l2.set_volume_hint(a.nnz)

    l3 = prog.add_layer(LayerMode.SINGLE)
    rfib = l3.idx_fbrt(beg=b_row, size=rank)
    b_val = rfib.add_mem_stream(bmat, name="b_val")
    l3.add_callback(Event.GITE, "ri", [l3.vec_operand([b_val])])
    l1.add_callback(Event.GITE, "jb", [ScalarOperand(i_coord),
                                       ScalarOperand(j_coord)])
    l3.set_volume_hint(a.nnz * rank)

    out: dict[tuple[int, int], np.ndarray] = {}
    state = {"key": (0, 0), "a_val": 0.0, "r": 0}

    def jb_cb(record):
        i, j = record.operands
        state["key"] = (int(i), int(j))
        out[state["key"]] = np.zeros(rank)

    def kb_cb(record):
        state["a_val"] = record.operands[0][0]
        state["r"] = 0

    def ri(record):
        out[state["key"]][state["r"]] += state["a_val"] * (
            record.operands[0][0])
        state["r"] += 1

    return BuiltProgram(
        program=prog,
        handlers={"jb": jb_cb, "kb": kb_cb, "ri": ri},
        result=lambda: {k: v.copy() for k, v in out.items()},
        description="SpTTM: CSF walk + dense rank scan per leaf",
    )
