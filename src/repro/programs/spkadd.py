"""SpKAdd on the TMU (Table 4 row "SpKAdd").

K DCSR matrices are mapped to K lanes and merged hierarchically with
``DisjMrg`` layers (Section 4.2): the first layer joins the compressed
*row* dimensions — its predicate marks which matrices have the current
row — and the second layer joins the *column* fibers of exactly those
active lanes.  Each merged point marshals a K-wide value vector the
core reduces with one SIMD operation (Figure 7's callback).
"""

from __future__ import annotations

import numpy as np

from ..config import MachineConfig
from ..errors import WorkloadError
from ..formats.dcsr import DcsrMatrix
from ..kernels.spkadd import spkadd_streams
from ..sim.machine import TmuWorkloadModel
from ..sim.trace import KernelTrace
from ..tmu.program import Event, LayerMode, Program
from ..types import INDEX_BYTES, VALUE_BYTES
from .common import BuiltProgram, record_bytes


def build_spkadd_program(matrices: list[DcsrMatrix],
                         name: str = "spkadd") -> BuiltProgram:
    """Build the runnable SpKAdd program for K DCSR inputs."""
    if not matrices:
        raise WorkloadError("spkadd needs at least one matrix")
    shape = matrices[0].shape
    if any(m.shape != shape for m in matrices):
        raise WorkloadError("spkadd inputs must share one shape")
    k = len(matrices)

    prog = Program(name, lanes=k)
    arrays = []
    for x, m in enumerate(matrices):
        arrays.append({
            "rows": prog.place_array(m.row_idxs, INDEX_BYTES,
                                     f"A{x}->row_idxs"),
            "ptrb": prog.place_array(m.ptrs, INDEX_BYTES, f"A{x}->ptrs"),
            "idxs": prog.place_array(m.idxs, INDEX_BYTES, f"A{x}->idxs"),
            "vals": prog.place_array(m.vals, VALUE_BYTES, f"A{x}->vals"),
        })

    # Layer 0: disjunctive merge of the compressed row dimension.
    l0 = prog.add_layer(LayerMode.DISJ_MRG)
    row_begs, row_ends = [], []
    row_idx_streams = []
    for x, m in enumerate(matrices):
        tu = l0.dns_fbrt(beg=0, end=m.num_nonempty_rows)
        ridx = tu.add_mem_stream(arrays[x]["rows"], name=f"row_idx{x}")
        rb = tu.add_mem_stream(arrays[x]["ptrb"], name=f"row_beg{x}")
        re_ = tu.add_mem_stream(arrays[x]["ptrb"], offset=1,
                                name=f"row_end{x}")
        tu.set_merge_key(ridx)
        row_begs.append(rb)
        row_ends.append(re_)
        row_idx_streams.append(ridx)
    l0.set_volume_hint(sum(m.num_nonempty_rows for m in matrices))

    # Layer 1: disjunctive merge of the active lanes' column fibers.
    l1 = prog.add_layer(LayerMode.DISJ_MRG)
    val_streams = []
    for x in range(k):
        tu = l1.rng_fbrt(beg=row_begs[x], end=row_ends[x])
        cidx = tu.add_mem_stream(arrays[x]["idxs"], name=f"col{x}")
        val_streams.append(tu.add_mem_stream(arrays[x]["vals"],
                                             name=f"val{x}"))
        tu.set_merge_key(cidx)
    nnz_els = l1.vec_operand(val_streams)
    l1.add_callback(Event.GITE, "ri", [nnz_els, l1.mask_operand(),
                                       l1.index_operand()])
    l0.add_callback(Event.GITE, "rb", [l0.index_operand()])
    l1.set_volume_hint(sum(m.nnz for m in matrices))

    # Core side: one vec_reduce per merged point (Figure 7's callback),
    # assembling the compressed output as rows complete.
    out_rows: list[tuple[int, list[int], list[float]]] = []

    def rb(record):
        row_index = int(record.operands[0])
        out_rows.append((row_index, [], []))

    def ri(record):
        vals, mask, col = record.operands
        total = 0.0
        for lane in range(len(vals)):
            if mask & (1 << lane):
                total += vals[lane]
        _row, cols, rowvals = out_rows[-1]
        cols.append(int(col))
        rowvals.append(total)

    def result():
        from ..formats.csr import CsrMatrix

        ptrs = np.zeros(rows + 1, dtype=np.int64)
        idx_parts, val_parts = [], []
        by_row = {r: (c, v) for r, c, v in out_rows}
        total = 0
        for i in range(rows):
            if i in by_row:
                cols, vals_ = by_row[i]
                total += len(cols)
                idx_parts.append(np.asarray(cols, dtype=np.int64))
                val_parts.append(np.asarray(vals_))
            ptrs[i + 1] = total
        return CsrMatrix(
            shape, ptrs,
            np.concatenate(idx_parts) if idx_parts else np.zeros(0,
                                                                 np.int64),
            np.concatenate(val_parts) if val_parts else np.zeros(0),
            validate=False)

    rows = shape[0]
    return BuiltProgram(
        program=prog,
        handlers={"rb": rb, "ri": ri},
        result=result,
        description="SpKAdd: hierarchical K-way disjunctive merge",
    )


def spkadd_timing_model(matrices: list[DcsrMatrix],
                        machine: MachineConfig, *,
                        name: str = "spkadd") -> TmuWorkloadModel:
    """Analytic TMU workload model for SpKAdd (K-way DisjMrg)."""
    k = len(matrices)
    total_nnz = sum(m.nnz for m in matrices)
    total_rows = sum(m.num_nonempty_rows for m in matrices)
    rows = matrices[0].num_rows if matrices else 0
    streams, row_points, nnz_out = spkadd_streams(*matrices)

    ri_bytes = record_bytes(1, k, with_mask=True)
    outq_bytes = nnz_out * ri_bytes + row_points * record_bytes(
        0, 0, with_mask=True)

    core_trace = KernelTrace(
        name=f"{name}-callbacks",
        scalar_ops=3 * row_points + 2 * nnz_out,
        vector_ops=2 * nnz_out,          # one vec_reduce (2 uops)
        loads=nnz_out,
        stores=2 * nnz_out,              # Z idx + Z val
        branches=nnz_out + row_points,
        datadep_branches=0,
        flops=float(total_nnz - nnz_out),
        streams=list(streams[-2:]),
        dependent_load_fraction=0.0,
        parallel_units=rows,
    )
    return TmuWorkloadModel(
        name=name,
        tmu_streams=list(streams[:-2]),
        layer_elements=[total_rows, total_nnz],
        layer_lanes=[k, k],
        merge_steps=nnz_out + row_points,
        outq_records=nnz_out + row_points,
        outq_bytes=outq_bytes,
        core_trace=core_trace,
    )
