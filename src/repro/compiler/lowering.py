"""Lowering: from a parsed tensor expression to a runnable TMU program.

The lowering pipeline mirrors what a Custard/SAM-style compiler would
do (paper Section 4.4):

1. classify each index as free / contracted / element-wise;
2. pick the loop schedule (output-major, contraction innermost);
3. select traversal primitives from the operand formats and the
   inter-layer configuration from the index classes (LockStep for
   parallel loads, ConjMrg for multiplicative joins, DisjMrg for
   additive joins);
4. emit the :class:`~repro.tmu.program.Program` plus generic core
   callbacks and a result-assembly closure.
"""

from __future__ import annotations

import numpy as np

from ..formats.csr import CsrMatrix
from ..programs import (
    build_spmm_program,
    build_spmspm_program,
    build_spmspv_program,
    build_spmv_program,
)
from ..programs.common import BuiltProgram
from ..tmu.program import Event, LayerMode, Program
from ..types import INDEX_BYTES, VALUE_BYTES
from .parser import ExpressionError, ParsedExpression, parse_expression


def compile_expression(expression: str | ParsedExpression,
                       operands: dict, *,
                       lanes: int = 2) -> BuiltProgram:
    """Compile a tensor expression against concrete operands.

    ``operands`` maps tensor names to :class:`CsrMatrix`, an
    ``(idxs, vals)`` tuple (sparse vector) or numpy arrays (dense
    operands).
    Returns a :class:`BuiltProgram`; run it with
    ``TmuEngine(built.program).run(built.handlers)`` and read
    ``built.result()``.
    """
    expr = (parse_expression(expression)
            if isinstance(expression, str) else expression)
    missing = [r.name for r in expr.operands if r.name not in operands]
    if missing:
        raise ExpressionError(f"no operand bound for {missing}")

    if expr.op == "+":
        return _lower_elementwise(expr, operands, LayerMode.DISJ_MRG)

    classes = expr.index_classes()
    contracted = [i for i, c in classes.items() if c == "contracted"]
    elementwise = [i for i, c in classes.items() if c == "elementwise"]

    if elementwise and not contracted:
        return _lower_elementwise(expr, operands, LayerMode.CONJ_MRG)
    if len(contracted) == 1 and not elementwise:
        return _lower_contraction(expr, operands, contracted[0],
                                  lanes=lanes)
    raise ExpressionError(
        f"unsupported index structure: contracted={contracted}, "
        f"elementwise={elementwise} (the subset covers single "
        "contractions and pure element-wise joins)"
    )


# ------------------------------------------------------------- patterns

def _require_csr(ref, operand) -> CsrMatrix:
    if not isinstance(operand, CsrMatrix):
        raise ExpressionError(
            f"{ref} must be a CsrMatrix, got {type(operand).__name__}"
        )
    return operand


def _lower_contraction(expr: ParsedExpression, operands: dict,
                       contracted: str, *, lanes: int) -> BuiltProgram:
    """``Z(i[,k]) = A(i,j) * B(j[,k])`` — SpMV / SpMSpV / SpMM /
    SpMSpM, selected by the right operand's type and arity."""
    lhs, rhs = expr.lhs, expr.rhs
    # Normalize so the order-2 operand whose *last* index is contracted
    # drives the row-major traversal (multiplication commutes).
    def _drives(ref) -> bool:
        return len(ref.indices) == 2 and ref.indices[-1] == contracted

    if not _drives(lhs) and rhs is not None and _drives(rhs):
        lhs, rhs = rhs, lhs
    if lhs.indices[-1] != contracted or rhs.indices[0] != contracted:
        raise ExpressionError(
            "the contraction index must close the left operand and "
            "open the right one (row-major x row-major)"
        )
    if len(lhs.indices) != 2:
        raise ExpressionError("left operand must be order-2")
    a = _require_csr(lhs, operands[lhs.name])
    b = operands[rhs.name]

    if len(rhs.indices) == 1:
        if isinstance(b, tuple):
            return build_spmspv_program(a, b, name="compiled_spmspv")
        return build_spmv_program(a, np.asarray(b, dtype=np.float64),
                                  lanes=lanes, name="compiled_spmv")
    if len(rhs.indices) == 2:
        if isinstance(b, CsrMatrix):
            return build_spmspm_program(a, b, lanes=lanes,
                                        name="compiled_spmspm")
        return build_spmm_program(a, np.asarray(b, dtype=np.float64),
                                  lanes=lanes, name="compiled_spmm")
    raise ExpressionError("right operand must be order-1 or order-2")


def _lower_elementwise(expr: ParsedExpression, operands: dict,
                       mode: LayerMode) -> BuiltProgram:
    """``Z(i,j) = A(i,j) (+|*) B(i,j)`` with CSR operands: co-iterate
    rows in lockstep and join the column fibers with a merging layer."""
    a = _require_csr(expr.lhs, operands[expr.lhs.name])
    if expr.rhs is None:
        raise ExpressionError("element-wise join needs two operands")
    b = _require_csr(expr.rhs, operands[expr.rhs.name])
    if a.shape != b.shape:
        raise ExpressionError(f"shape mismatch {a.shape} vs {b.shape}")
    if expr.lhs.indices != expr.rhs.indices or len(
            expr.lhs.indices) != 2:
        raise ExpressionError(
            "element-wise join needs identically-indexed order-2 "
            "operands"
        )
    combine_add = mode is LayerMode.DISJ_MRG

    prog = Program("compiled_ewise", lanes=2)
    arrays = []
    for tag, m in (("a", a), ("b", b)):
        arrays.append({
            "ptrs": prog.place_array(m.ptrs, INDEX_BYTES, f"{tag}->ptrs"),
            "idxs": prog.place_array(m.idxs, INDEX_BYTES, f"{tag}->idxs"),
            "vals": prog.place_array(m.vals, VALUE_BYTES, f"{tag}->vals"),
        })

    # Layer 0: both row dimensions co-iterate in lockstep.
    l0 = prog.add_layer(LayerMode.LOCKSTEP)
    begs, ends = [], []
    for lane, m in enumerate((a, b)):
        row = l0.dns_fbrt(beg=0, end=m.num_rows)
        begs.append(row.add_mem_stream(arrays[lane]["ptrs"],
                                       name=f"beg{lane}"))
        ends.append(row.add_mem_stream(arrays[lane]["ptrs"], offset=1,
                                       name=f"end{lane}"))
    l0.add_callback(Event.GITE, "row", [l0.index_operand()])
    l0.set_volume_hint(a.num_rows)

    # Layer 1: merge the two column fibers.
    l1 = prog.add_layer(mode)
    val_streams = []
    for lane in range(2):
        col = l1.rng_fbrt(beg=begs[lane], end=ends[lane])
        cidx = col.add_mem_stream(arrays[lane]["idxs"],
                                  name=f"col{lane}")
        val_streams.append(col.add_mem_stream(arrays[lane]["vals"],
                                              name=f"val{lane}"))
        col.set_merge_key(cidx)
    vals_vec = l1.vec_operand(val_streams)
    l1.add_callback(Event.GITE, "point",
                    [vals_vec, l1.mask_operand(), l1.index_operand()])
    l1.set_volume_hint(a.nnz + b.nnz)

    rows_out: list[tuple[list[int], list[float]]] = []

    def row_cb(record):
        rows_out.append(([], []))

    def point_cb(record):
        vals, mask, col = record.operands
        if combine_add:
            value = sum(vals[k] for k in range(2) if mask & (1 << k))
        else:
            value = 1.0
            for k in range(2):
                if mask & (1 << k):
                    value *= vals[k]
        cols, out_vals = rows_out[-1]
        cols.append(int(col))
        out_vals.append(value)

    def result() -> CsrMatrix:
        ptrs = np.zeros(a.num_rows + 1, dtype=np.int64)
        idx_parts, val_parts = [], []
        for i, (cols, vals_) in enumerate(rows_out):
            ptrs[i + 1] = ptrs[i] + len(cols)
            idx_parts.append(np.asarray(cols, dtype=np.int64))
            val_parts.append(np.asarray(vals_))
        return CsrMatrix(
            a.shape, ptrs,
            np.concatenate(idx_parts) if idx_parts else np.zeros(
                0, np.int64),
            np.concatenate(val_parts) if val_parts else np.zeros(0),
            validate=False)

    op_name = "add" if combine_add else "multiply"
    return BuiltProgram(
        program=prog,
        handlers={"row": row_cb, "point": point_cb},
        result=result,
        description=f"compiled element-wise {op_name} "
                    f"({mode.value} join)",
    )
