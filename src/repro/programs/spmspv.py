"""SpMSpV on the TMU (Table 4 row "SpMSpV").

The sparse vector is loaded in one lane and each matrix row in another;
a ``ConjMrg`` layer intersects them, so ``ri`` fires only on matching
coordinates with both values marshaled.  The vector lane is a dense
scan over the vector's compressed storage, re-armed for every row.
The vector arrives as its two compressed arrays, ``(idxs, vals)``.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError
from ..formats.csr import CsrMatrix
from ..tmu.program import Event, LayerMode, Program
from ..types import INDEX_BYTES, VALUE_BYTES, as_index_array, as_value_array
from .common import BuiltProgram


def build_spmspv_program(a: CsrMatrix, b: tuple[np.ndarray, np.ndarray],
                         name: str = "spmspv") -> BuiltProgram:
    """Z_i = A_ij B_j with a sparse B, via conjunctive merging.

    ``b`` is the sparse vector as ``(idxs, vals)``: its coordinates,
    strictly increasing and within A's columns, and their values.  The
    merger assumes sorted fibers, so a vector that breaks this is
    refused here with :class:`WorkloadError`.
    """
    b_idxs, b_vals = as_index_array(b[0]), as_value_array(b[1])
    if b_idxs.shape != b_vals.shape:
        raise WorkloadError(
            f"sparse vector has {b_idxs.size} indexes but "
            f"{b_vals.size} values")
    if np.any(np.diff(b_idxs) <= 0):
        raise WorkloadError("sparse vector indexes must be strictly "
                            "increasing")
    if b_idxs.size and (b_idxs[0] < 0 or b_idxs[-1] >= a.num_cols):
        raise WorkloadError(
            f"sparse vector index outside [0, {a.num_cols})")
    prog = Program(name, lanes=2)
    ptrs = prog.place_array(a.ptrs, INDEX_BYTES, "a->ptrs")
    idxs = prog.place_array(a.idxs, INDEX_BYTES, "a->idxs")
    vals = prog.place_array(a.vals, VALUE_BYTES, "a->vals")
    b_idx = prog.place_array(b_idxs, INDEX_BYTES, "b->idxs")
    b_val = prog.place_array(b_vals, VALUE_BYTES, "b->vals")

    l0 = prog.add_layer(LayerMode.BCAST)
    row = l0.dns_fbrt(beg=0, end=a.num_rows)
    ptbs = row.add_mem_stream(ptrs, name="row_ptbs")
    ptes = row.add_mem_stream(ptrs, offset=1, name="row_ptes")
    l0.set_volume_hint(a.num_rows)

    l1 = prog.add_layer(LayerMode.CONJ_MRG)
    mat = l1.rng_fbrt(beg=ptbs, end=ptes)
    mat_idx = mat.add_mem_stream(idxs, name="a_col")
    mat_val = mat.add_mem_stream(vals, name="a_val")
    mat.set_merge_key(mat_idx)

    vec = l1.dns_fbrt(beg=0, end=b_idxs.size)
    vec_idx = vec.add_mem_stream(b_idx, name="b_idx")
    vec_val = vec.add_mem_stream(b_val, name="b_val")
    vec.set_merge_key(vec_idx)

    vals_vec = l1.vec_operand([mat_val, vec_val])
    l1.add_callback(Event.GITE, "ri", [vals_vec])
    l1.add_callback(Event.GEND, "re", [])
    l1.set_volume_hint(a.nnz + a.num_rows * max(1, b_idxs.size))

    out = np.zeros(a.num_rows)
    state = {"sum": 0.0, "row": 0}

    def ri(record):
        mv, bv = record.operands[0]
        state["sum"] += mv * bv

    def re(record):
        out[state["row"]] = state["sum"]
        state["sum"] = 0.0
        state["row"] += 1

    return BuiltProgram(
        program=prog,
        handlers={"ri": ri, "re": re},
        result=lambda: out.copy(),
        description="SpMSpV: conjunctive merge of row and sparse vector",
    )
