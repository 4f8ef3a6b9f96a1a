"""Gustavson SpMSpM on the TMU (Table 4 rows "SpMSpM P0/P2").

``Z_ij = A_ik B_kj`` with both operands CSR.  Three layers: the row
traversal (i), the compressed traversal of A's row (k) loading A's
values and B's row bounds, and the scan of row ``B_k*`` (j)
parallelized across lanes.  The core performs the reduction into a
dense accumulator and assembles the compressed output row at ``re`` —
the partial-result flexibility the paper argues for keeping on the
core.
"""

from __future__ import annotations

import numpy as np

from ..config import MachineConfig
from ..formats.csr import CsrMatrix
from ..kernels.common import operand_memo
from ..kernels.spmspm import shared_streams, spmspm_streams
from ..sim.machine import TmuWorkloadModel
from ..sim.trace import AccessStream, KernelTrace
from ..tmu.program import Event, LayerMode, Program
from ..types import INDEX_BYTES, VALUE_BYTES
from .common import BuiltProgram, check_contracted, record_bytes, sve_lanes_of


def build_spmspm_program(a: CsrMatrix, b: CsrMatrix, *, lanes: int = 2,
                         name: str = "spmspm") -> BuiltProgram:
    """Build the runnable SpMSpM program (P2: j-level parallelism)."""
    check_contracted("SpMSpM", a.num_cols, b.num_rows)
    prog = Program(name, lanes=max(1, lanes))
    a_ptrs = prog.place_array(a.ptrs, INDEX_BYTES, "a->ptrs")
    a_idxs = prog.place_array(a.idxs, INDEX_BYTES, "a->idxs")
    a_vals = prog.place_array(a.vals, VALUE_BYTES, "a->vals")
    b_ptrs = prog.place_array(b.ptrs, INDEX_BYTES, "b->ptrs")
    b_idxs = prog.place_array(b.idxs, INDEX_BYTES, "b->idxs")
    b_vals = prog.place_array(b.vals, VALUE_BYTES, "b->vals")

    l0 = prog.add_layer(LayerMode.SINGLE)
    row = l0.dns_fbrt(beg=0, end=a.num_rows)
    ptbs = row.add_mem_stream(a_ptrs, name="a_row_beg")
    ptes = row.add_mem_stream(a_ptrs, offset=1, name="a_row_end")
    l0.set_volume_hint(a.num_rows)

    l1 = prog.add_layer(LayerMode.BCAST)
    kk = l1.rng_fbrt(beg=ptbs, end=ptes)
    k_idx = kk.add_mem_stream(a_idxs, name="k_idx")
    a_val = kk.add_mem_stream(a_vals, name="a_val")
    kb = kk.add_mem_stream(b_ptrs, parent=k_idx, name="b_row_beg")
    ke = kk.add_mem_stream(b_ptrs, parent=k_idx, offset=1,
                           name="b_row_end")
    l1.add_callback(Event.GITE, "ki", [l1.vec_operand([a_val])])
    l1.set_volume_hint(a.nnz)

    mode2 = LayerMode.LOCKSTEP if lanes > 1 else LayerMode.SINGLE
    l2 = prog.add_layer(mode2)
    j_streams, v_streams = [], []
    for lane in range(lanes):
        jj = l2.rng_fbrt(beg=kb, end=ke, offset=lane, stride=lanes)
        j_streams.append(jj.add_mem_stream(b_idxs, name=f"b_col{lane}"))
        v_streams.append(jj.add_mem_stream(b_vals, name=f"b_val{lane}"))
    b_cols = l2.vec_operand(j_streams)
    b_valv = l2.vec_operand(v_streams)
    l2.add_callback(Event.GITE, "ji", [b_cols, b_valv,
                                       l2.mask_operand()])
    l0.add_callback(Event.GITE, "rb", [])
    l2.set_volume_hint(4.0 * a.nnz)

    # Core side: dense accumulator + touched list per output row.
    acc = np.zeros(b.num_cols)
    touched: list[int] = []
    rows_out: list[tuple[np.ndarray, np.ndarray]] = []
    state = {"a_val": 0.0, "pending": False}

    def rb(record):
        # row begin: flush the previous row's accumulator
        if state["pending"]:
            _flush()
        state["pending"] = True

    def _flush():
        cols = np.unique(np.asarray(touched, dtype=np.int64))
        rows_out.append((cols, acc[cols].copy()))
        acc[cols] = 0.0
        touched.clear()

    def ki(record):
        state["a_val"] = record.operands[0][0]

    def ji(record):
        cols, vals_, mask = record.operands
        for k in range(len(cols)):
            if mask & (1 << k):
                c = int(cols[k])
                acc[c] += state["a_val"] * vals_[k]
                touched.append(c)

    def result():
        if state["pending"]:
            _flush()
            state["pending"] = False
        ptrs_out = np.zeros(a.num_rows + 1, dtype=np.int64)
        idx_parts, val_parts = [], []
        for i, (cols, vals_) in enumerate(rows_out):
            ptrs_out[i + 1] = ptrs_out[i] + cols.size
            idx_parts.append(cols)
            val_parts.append(vals_)
        return CsrMatrix(
            (a.num_rows, b.num_cols), ptrs_out,
            np.concatenate(idx_parts) if idx_parts else np.zeros(0,
                                                                 np.int64),
            np.concatenate(val_parts) if val_parts else np.zeros(0),
            validate=False)

    return BuiltProgram(
        program=prog,
        handlers={"rb": rb, "ki": ki, "ji": ji},
        result=result,
        description="Gustavson SpMSpM, B-row scan vectorized",
    )


@operand_memo
def spmspm_tmu_streams(a: CsrMatrix, b: CsrMatrix
                       ) -> tuple[AccessStream, ...]:
    """The TMU's traversal streams.  All but ``B ptrs lookup`` are the
    baseline's own (:func:`~repro.kernels.spmspm.shared_streams`)."""
    shared, b_ptr_base, _ = shared_streams(a, b)
    return (
        *shared[:3],
        AccessStream(a.idxs, INDEX_BYTES, "read", "B ptrs lookup",
                     dependent=True, base=b_ptr_base, stride=INDEX_BYTES),
        *shared[3:],
    )


def spmspm_timing_model(a: CsrMatrix, b: CsrMatrix,
                        machine: MachineConfig, *,
                        name: str = "spmspm") -> TmuWorkloadModel:
    """Analytic TMU workload model for SpMSpM P2 (``Z = A B``).  The
    core writes the baseline's result arrays (``Z idxs``, ``Z vals``
    of :func:`~repro.kernels.spmspm.spmspm_streams`)."""
    base, scanned, nnz_out = spmspm_streams(a, b)
    lanes = sve_lanes_of(machine)
    rows, nnz_a = a.num_rows, a.nnz
    total_scanned = int(scanned.sum())
    steps = int(np.sum(-(-scanned // lanes)))

    ji_bytes = record_bytes(2, lanes, with_mask=True)
    ki_bytes = record_bytes(1, 1)
    outq_bytes = steps * ji_bytes + nnz_a * ki_bytes + rows * 4

    core_trace = KernelTrace(
        name=f"{name}-callbacks",
        # accumulator scatter-gather + row assembly (sort-free gather)
        scalar_ops=2 * nnz_a + 6 * rows + 6 * nnz_out,
        vector_ops=4 * steps,            # gather acc, fma, scatter acc
        loads=3 * steps + nnz_a + 2 * nnz_out,
        stores=steps + 2 * nnz_out,
        branches=steps + nnz_a + rows + nnz_out,
        datadep_branches=nnz_out // 8,   # touched-list dedup
        flops=2.0 * total_scanned,
        streams=list(base[-2:]),
        dependent_load_fraction=0.3,     # accumulator gathers
        parallel_units=rows,
    )
    return TmuWorkloadModel(
        name=name,
        tmu_streams=list(spmspm_tmu_streams(a, b)),
        layer_elements=[rows, nnz_a, total_scanned],
        layer_lanes=[1, 1, lanes],
        merge_steps=0,
        outq_records=steps + nnz_a + rows,
        outq_bytes=outq_bytes,
        core_trace=core_trace,
    )
