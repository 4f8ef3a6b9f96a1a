"""SpTTV on the TMU (Table 4 row "SpTTV").

``Z_ij = A_ijk B_k`` over a CSF tensor: three compressed layers walk
the CSF tree (i → j → k); the leaf layer loads values and the gathered
vector elements; ``re`` fires per (i, j) fiber with the leftward
coordinates marshaled as scalar operands.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError
from ..formats.csf import CsfTensor
from ..tmu.program import Event, LayerMode, Program
from ..types import INDEX_BYTES, VALUE_BYTES
from .common import BuiltProgram, check_contracted


def build_spttv_program(a: CsfTensor, b,
                        name: str = "spttv") -> BuiltProgram:
    """Build the runnable SpTTV program."""
    if a.ndim != 3:
        raise WorkloadError("the SpTTV program expects an order-3 CSF")
    b = np.asarray(b, dtype=np.float64)
    check_contracted("SpTTV", a.shape[2], len(b))

    prog = Program(name, lanes=1)
    idx0 = prog.place_array(a.idxs[0], INDEX_BYTES, "A->idxs0")
    ptr1 = prog.place_array(a.ptrs[1], INDEX_BYTES, "A->ptrs1")
    idx1 = prog.place_array(a.idxs[1], INDEX_BYTES, "A->idxs1")
    ptr2 = prog.place_array(a.ptrs[2], INDEX_BYTES, "A->ptrs2")
    idx2 = prog.place_array(a.idxs[2], INDEX_BYTES, "A->idxs2")
    vals = prog.place_array(a.vals, VALUE_BYTES, "A->vals")
    bvec = prog.place_array(b, VALUE_BYTES, "b")

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
    b_val = kfib.add_mem_stream(bvec, parent=k_coord, name="b[k]")
    l2.add_callback(Event.GITE, "ri", [l2.vec_operand([a_val]),
                                       l2.vec_operand([b_val])])
    from ..tmu.program import ScalarOperand

    l2.add_callback(Event.GEND, "re", [ScalarOperand(i_coord),
                                       ScalarOperand(j_coord)])
    l2.set_volume_hint(a.nnz)

    out: dict[tuple[int, int], float] = {}
    state = {"sum": 0.0}

    def ri(record):
        (av,), (bv,) = record.operands
        state["sum"] += av * bv

    def re(record):
        i, j = record.operands
        out[(int(i), int(j))] = state["sum"]
        state["sum"] = 0.0

    return BuiltProgram(
        program=prog,
        handlers={"ri": ri, "re": re},
        result=lambda: dict(out),
        description="SpTTV: CSF walk with leaf gather of the vector",
    )
