"""SpMV on the TMU (Table 4 rows "SpMV P0"/"SpMV P1", Figures 8 & 9).

Two layers: a dense traversal over row pointers, then a compressed
traversal of each row co-iterated across lanes in lockstep, each lane
loading column indexes, values, and the gathered vector elements at a
different offset.  ``ri`` fires per lockstep step with two vector
operands; ``re`` fires at each row's end.
"""

from __future__ import annotations

import numpy as np

from ..config import MachineConfig
from ..formats.csr import CsrMatrix
from ..kernels.spmv import spmv_streams
from ..sim.machine import TmuWorkloadModel
from ..sim.trace import KernelTrace
from ..tmu.program import Event, LayerMode, Program
from ..types import INDEX_BYTES, VALUE_BYTES
from .common import BuiltProgram, check_contracted, record_bytes, sve_lanes_of


def build_spmv_program(a: CsrMatrix, b, *, lanes: int = 2,
                       name: str = "spmv") -> BuiltProgram:
    """Build the runnable SpMV program (P1 when ``lanes > 1``, P0 when
    ``lanes == 1``) plus its core callbacks."""
    b = np.asarray(b, dtype=np.float64)
    check_contracted("SpMV", a.num_cols, len(b))
    prog = Program(name, lanes=max(1, lanes))
    ptrs = prog.place_array(a.ptrs, INDEX_BYTES, "a->ptrs")
    idxs = prog.place_array(a.idxs, INDEX_BYTES, "a->idxs")
    vals = prog.place_array(a.vals, VALUE_BYTES, "a->vals")
    bvec = prog.place_array(b, VALUE_BYTES, "b")

    mode0 = LayerMode.BCAST if lanes > 1 else LayerMode.SINGLE
    l0 = prog.add_layer(mode0)
    row = l0.dns_fbrt(beg=0, end=a.num_rows)
    ptbs = row.add_mem_stream(ptrs, name="row_ptbs")
    ptes = row.add_mem_stream(ptrs, offset=1, name="row_ptes")
    l0.set_volume_hint(a.num_rows)

    mode1 = LayerMode.LOCKSTEP if lanes > 1 else LayerMode.SINGLE
    l1 = prog.add_layer(mode1)
    nnz_streams, vec_streams = [], []
    for lane in range(lanes):
        col = l1.rng_fbrt(beg=ptbs, end=ptes, offset=lane, stride=lanes)
        ci = col.add_mem_stream(idxs, name=f"col_idxs{lane}")
        nnz_streams.append(col.add_mem_stream(vals, name=f"nnz_vals{lane}"))
        vec_streams.append(col.add_mem_stream(bvec, parent=ci,
                                              name=f"vec_vals{lane}"))
    nnz_vals = l1.vec_operand(nnz_streams)
    vec_vals = l1.vec_operand(vec_streams)
    l1.add_callback(Event.GITE, "ri", [nnz_vals, vec_vals,
                                       l1.mask_operand()])
    l1.add_callback(Event.GEND, "re", [])
    l1.set_volume_hint(a.nnz)

    out = np.zeros(a.num_rows)
    state = {"sum": 0.0, "row": 0}

    def ri(record):
        nv, vv, mask = record.operands
        acc = 0.0
        for k in range(len(nv)):
            if mask & (1 << k):
                acc += nv[k] * vv[k]
        state["sum"] += acc

    def re(record):
        out[state["row"]] = state["sum"]
        state["sum"] = 0.0
        state["row"] += 1

    return BuiltProgram(
        program=prog,
        handlers={"ri": ri, "re": re},
        result=lambda: out.copy(),
        description="SpMV CSR, inner-loop (column) vectorization",
    )


def spmv_timing_model(a: CsrMatrix, machine: MachineConfig,
                      *, name: str = "spmv") -> TmuWorkloadModel:
    """Analytic TMU workload model for SpMV P1.  The TMU walks the
    baseline's arrays (:func:`~repro.kernels.spmv.spmv_streams`): A's
    three arrays and the ``b[idx]`` gather, while the core writes the
    baseline's result vector."""
    *traversal, result = spmv_streams(a)
    lanes = sve_lanes_of(machine)
    rows, nnz = a.num_rows, a.nnz
    row_nnz = a.row_nnz()
    steps = int(np.sum(-(-row_nnz // lanes)))  # lockstep gites

    ri_bytes = record_bytes(2, lanes, with_mask=True)
    re_bytes = record_bytes(0, 0)
    outq_bytes = steps * ri_bytes + rows * re_bytes

    core_trace = KernelTrace(
        name=f"{name}-callbacks",
        scalar_ops=3 * rows,              # result store bookkeeping
        vector_ops=3 * steps,             # mul + reduce (2 uops)
        loads=2 * steps,                  # two vector operands per ri
        stores=rows,
        branches=steps + rows,            # outQ dispatch, predictable
        datadep_branches=0,
        flops=2.0 * nnz,
        streams=[result],
        dependent_load_fraction=0.0,
        parallel_units=rows,
    )
    return TmuWorkloadModel(
        name=name,
        tmu_streams=traversal,
        layer_elements=[rows, nnz],
        layer_lanes=[1, lanes],
        merge_steps=0,
        outq_records=steps + rows,
        outq_bytes=outq_bytes,
        core_trace=core_trace,
    )
