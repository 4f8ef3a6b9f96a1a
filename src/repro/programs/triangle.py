"""Triangle counting on the TMU (Table 4 row "TriangleCount").

``c = Σ (L·Lᵀ).*L``: for every edge (i, j) of the lower-triangular
adjacency ``L``, the TMU conjunctively merges neighbour lists ``L_i``
and ``L_j`` and marshals only the intersection hits; the core simply
counts.  Three layers: the row scan (i), the edge traversal (j, which
also looks up row j's bounds), and the ``ConjMrg`` of the two rows.
"""

from __future__ import annotations

import numpy as np

from ..config import MachineConfig
from ..formats.csr import CsrMatrix
from ..kernels.triangle import triangle_count, triangle_streams
from ..sim.machine import TmuWorkloadModel
from ..sim.trace import KernelTrace
from ..tmu.program import Event, LayerMode, Program
from ..types import INDEX_BYTES
from .common import BuiltProgram, record_bytes


def build_triangle_program(l_mat: CsrMatrix,
                           name: str = "triangle") -> BuiltProgram:
    """Build the runnable TC program: count via conjunctive merges."""
    prog = Program(name, lanes=2)
    ptrs = prog.place_array(l_mat.ptrs, INDEX_BYTES, "L->ptrs")
    idxs = prog.place_array(l_mat.idxs, INDEX_BYTES, "L->idxs")

    l0 = prog.add_layer(LayerMode.BCAST)
    row = l0.dns_fbrt(beg=0, end=l_mat.num_rows)
    ib = row.add_mem_stream(ptrs, name="row_i_beg")
    ie = row.add_mem_stream(ptrs, offset=1, name="row_i_end")
    l0.set_volume_hint(l_mat.num_rows)

    # Layer 1: traverse row i's edges; each edge j yields row j's bounds.
    l1 = prog.add_layer(LayerMode.BCAST)
    edge = l1.rng_fbrt(beg=ib, end=ie)
    j_idx = edge.add_mem_stream(idxs, name="j")
    jb = edge.add_mem_stream(ptrs, parent=j_idx, name="row_j_beg")
    je = edge.add_mem_stream(ptrs, parent=j_idx, offset=1,
                             name="row_j_end")
    l1.set_volume_hint(l_mat.nnz)

    # Layer 2: conjunctive merge of L_i and L_j.
    l2 = prog.add_layer(LayerMode.CONJ_MRG)
    row_i = l2.rng_fbrt(beg=ib, end=ie)
    ki = row_i.add_mem_stream(idxs, name="L_i")
    row_i.set_merge_key(ki)
    row_j = l2.rng_fbrt(beg=jb, end=je)
    kj = row_j.add_mem_stream(idxs, name="L_j")
    row_j.set_merge_key(kj)
    l2.add_callback(Event.GITE, "hit", [])
    l2.set_volume_hint(2.0 * l_mat.nnz * max(
        1.0, l_mat.nnz / max(1, l_mat.num_rows)))

    count = {"triangles": 0}

    def hit(record):
        count["triangles"] += 1

    return BuiltProgram(
        program=prog,
        handlers={"hit": hit},
        result=lambda: count["triangles"],
        description="TC: per-edge conjunctive merge of neighbour lists",
    )


def triangle_timing_model(l_mat: CsrMatrix, machine: MachineConfig, *,
                          name: str = "triangle") -> TmuWorkloadModel:
    """Analytic TMU workload model for TC."""
    rows = l_mat.num_rows
    row_nnz = np.diff(l_mat.ptrs)
    # merge work: |L_i| + |L_j| advances per edge; hits = triangles.
    scan_j = row_nnz[l_mat.idxs] if l_mat.nnz else np.zeros(0, np.int64)
    rescan_i = np.repeat(row_nnz, row_nnz) if l_mat.nnz else scan_j
    merge_elements = int(scan_j.sum() + rescan_i.sum())
    hits = triangle_count(l_mat)

    outq_bytes = hits * record_bytes(0, 0, with_mask=True) + (
        l_mat.nnz * 4)
    core_trace = KernelTrace(
        name=f"{name}-callbacks",
        scalar_ops=2 * hits + l_mat.nnz,
        vector_ops=0,
        loads=hits,
        stores=rows,
        branches=hits + l_mat.nnz,
        datadep_branches=0,
        flops=0.0,
        streams=[],
        dependent_load_fraction=0.0,
        parallel_units=rows,
    )
    # The merge advances every min-coordinate lane per gite: with two
    # fibers, each step consumes ~1.6 elements on average.  The layer's
    # single merge network serializes gites, so independent edges do
    # not overlap.
    return TmuWorkloadModel(
        name=name,
        tmu_streams=list(triangle_streams(l_mat)),
        layer_elements=[rows, l_mat.nnz, merge_elements],
        layer_lanes=[1, 1, 2],
        merge_steps=int(merge_elements / 1.6),
        outq_records=hits + l_mat.nnz,
        outq_bytes=outq_bytes,
        core_trace=core_trace,
    )
