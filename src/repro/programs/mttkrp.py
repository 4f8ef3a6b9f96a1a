"""MTTKRP on the TMU (Table 4 rows "MTTKRP P1/P2").

The COO tensor is scanned with a singleton traversal (one TU loading
all coordinate arrays and values); ``lin`` streams turn the k/l
coordinates into factor-row base positions, and an ``IdxFbrT`` layer
scans ``B[k, :]`` and ``C[l, :]`` in lockstep — one lane group per
factor — marshaling aligned (b, c) element pairs the core multiplies
and accumulates into ``Z[i, :]``.
"""

from __future__ import annotations

import numpy as np

from ..config import MachineConfig
from ..errors import WorkloadError
from ..formats.coo import CooTensor
from ..kernels.common import operand_memo, sequential_stream
from ..kernels.mttkrp import coo_streams, factor_rows
from ..sim.machine import TmuWorkloadModel
from ..sim.trace import AccessStream, AddressSpace, KernelTrace
from ..tmu.program import Event, LayerMode, Program
from ..types import INDEX_BYTES, VALUE_BYTES
from .common import BuiltProgram, record_bytes, sve_lanes_of


def build_mttkrp_program(tensor: CooTensor, b, c,
                         name: str = "mttkrp") -> BuiltProgram:
    """Build the runnable MTTKRP program (mode-0 output).

    Uses two lanes — one scanning the ``B[k, :]`` fiber, one scanning
    ``C[l, :]`` — in lockstep, the P1 ("mode") scheme with the factor
    dimension marshaled pairwise.
    """
    if tensor.ndim != 3:
        raise WorkloadError("the MTTKRP program expects an order-3 tensor")
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if b.shape[1] != c.shape[1]:
        raise WorkloadError("factor ranks must agree")
    rank = b.shape[1]
    b_flat = np.ascontiguousarray(b.reshape(-1))
    c_flat = np.ascontiguousarray(c.reshape(-1))

    prog = Program(name, lanes=2)
    i_arr = prog.place_array(tensor.coords[0], INDEX_BYTES, "A->i")
    k_arr = prog.place_array(tensor.coords[1], INDEX_BYTES, "A->k")
    l_arr = prog.place_array(tensor.coords[2], INDEX_BYTES, "A->l")
    v_arr = prog.place_array(tensor.values, VALUE_BYTES, "A->vals")
    b_arr = prog.place_array(b_flat, VALUE_BYTES, "B")
    c_arr = prog.place_array(c_flat, VALUE_BYTES, "C")

    l0 = prog.add_layer(LayerMode.BCAST)
    nz = l0.dns_fbrt(beg=0, end=tensor.nnz)
    nz.add_mem_stream(i_arr, name="i")
    k_str = nz.add_mem_stream(k_arr, name="k")
    l_str = nz.add_mem_stream(l_arr, name="l")
    nz.add_mem_stream(v_arr, name="val")
    b_beg = nz.add_lin_stream(rank, 0, parent=k_str, name="b_row_beg")
    c_beg = nz.add_lin_stream(rank, 0, parent=l_str, name="c_row_beg")
    l0.add_callback(Event.GITE, "nb", [])
    l0.set_volume_hint(tensor.nnz)

    l1 = prog.add_layer(LayerMode.LOCKSTEP)
    b_tu = l1.idx_fbrt(beg=b_beg, size=rank)
    b_val = b_tu.add_mem_stream(b_arr, name="b_val")
    c_tu = l1.idx_fbrt(beg=c_beg, size=rank)
    c_val = c_tu.add_mem_stream(c_arr, name="c_val")
    factors = l1.vec_operand([b_val, c_val])
    l1.add_callback(Event.GITE, "ri", [factors])
    l1.set_volume_hint(2.0 * tensor.nnz * rank)

    out = np.zeros((tensor.shape[0], rank))
    state = {"i": 0, "val": 0.0, "j": 0, "nnz_pos": 0}
    coords_i = tensor.coords[0]
    values = tensor.values

    def nb(record):
        pos = state["nnz_pos"]
        state["i"] = int(coords_i[pos])
        state["val"] = float(values[pos])
        state["j"] = 0
        state["nnz_pos"] += 1

    def ri(record):
        bv, cv = record.operands[0]
        out[state["i"], state["j"]] += state["val"] * bv * cv
        state["j"] += 1

    return BuiltProgram(
        program=prog,
        handlers={"nb": nb, "ri": ri},
        result=lambda: out.copy(),
        description="MTTKRP COO, factor rows scanned in lockstep",
    )


@operand_memo
def mttkrp_tmu_streams(tensor: CooTensor, rank: int
                       ) -> tuple[tuple[AccessStream, ...], int]:
    """The operand-only half of :func:`mttkrp_timing_model`: the TMU's
    traversal streams, which depend on neither the parallel scheme nor
    the machine, and the address-space region that follows them (where
    each call places the core's result stream).  The COO walks are the
    baseline's own (:func:`~repro.kernels.mttkrp.coo_streams`)."""
    coords, next_region = coo_streams(tensor)
    space = AddressSpace(next_region)
    b_base = space.place(tensor.shape[1] * rank * VALUE_BYTES)
    c_base = space.place(tensor.shape[2] * rank * VALUE_BYTES)

    # Factor-row element traffic: rank elements per factor per nnz.
    b_elems, _ = factor_rows(tensor.coords[1], rank, 1)
    c_elems, _ = factor_rows(tensor.coords[2], rank, 1)
    streams = (
        *coords,
        AccessStream(b_elems, VALUE_BYTES, "read", "B[k,:]", dependent=True,
                     base=b_base, stride=VALUE_BYTES),
        AccessStream(c_elems, VALUE_BYTES, "read", "C[l,:]", dependent=True,
                     base=c_base, stride=VALUE_BYTES),
    )
    return streams, space.next_region


def mttkrp_timing_model(tensor: CooTensor, rank: int,
                        machine: MachineConfig, *,
                        parallel: str = "mode",
                        name: str | None = None) -> TmuWorkloadModel:
    """Analytic TMU workload model for MTTKRP.

    ``parallel='mode'`` (P1) splits lanes across the two factors;
    ``parallel='rank'`` (P2) dedicates all lanes to rank-dimension
    chunks — same traffic, different lane occupancy and outQ layout.
    """
    if tensor.ndim != 3:
        raise WorkloadError("mttkrp_timing_model expects an order-3 tensor")
    if parallel not in ("mode", "rank"):
        raise WorkloadError(f"unknown parallel scheme {parallel!r}")
    lanes = sve_lanes_of(machine)
    nnz = tensor.nnz
    name = name or f"mttkrp_{parallel}"
    streams, next_region = mttkrp_tmu_streams(tensor, rank)
    space = AddressSpace(next_region)

    if parallel == "mode":
        # lanes split across the two factors: rank scanned in
        # lanes/2-wide steps per factor.
        per_factor = max(1, lanes // 2)
        steps = nnz * (-(-rank // per_factor))
    else:
        # rank-parallel: all lanes on one factor at a time.
        steps = 2 * nnz * (-(-rank // lanes))

    ri_bytes = record_bytes(2, lanes // 2 if parallel == "mode" else lanes)
    outq_bytes = steps * ri_bytes + nnz * record_bytes(0, 0,
                                                       num_scalar_operands=2)
    if parallel == "rank":
        # P2 marshals full-width factor chunks with ldr-provided output
        # pointers: one fused multiply per step and less bookkeeping.
        vec_per_step, scalar_per_nnz = 2, 2
    else:
        vec_per_step, scalar_per_nnz = 3, 4
    core_trace = KernelTrace(
        name=f"{name}-callbacks",
        scalar_ops=scalar_per_nnz * nnz,
        vector_ops=vec_per_step * steps,
        loads=2 * steps + nnz,
        stores=steps,
        branches=steps + nnz,
        datadep_branches=0,
        flops=3.0 * nnz * rank,
        streams=[sequential_stream(space, tensor.shape[0] * rank,
                                   VALUE_BYTES, "write", "Z")],
        dependent_load_fraction=0.0,
        parallel_units=int(tensor.shape[0]),
    )
    return TmuWorkloadModel(
        name=name,
        tmu_streams=list(streams),
        layer_elements=[nnz, 2 * nnz * rank],
        layer_lanes=[1, lanes],
        merge_steps=0,
        outq_records=steps + nnz,
        outq_bytes=outq_bytes,
        core_trace=core_trace,
    )
