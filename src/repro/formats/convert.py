"""Conversions into the sparse tensor formats of Figure 1 (and CSR
back to COO).

All conversions are exact and preserve the sorted-coordinate invariants
the traversal and merge machinery depend on.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConversionError
from ..types import lex_order, ptrs_from_ids
from .coo import CooMatrix, CooTensor
from .csf import CsfTensor
from .csr import CsrMatrix
from .dcsr import DcsrMatrix


def coo_to_csr(coo: CooMatrix) -> CsrMatrix:
    """COO → CSR.  Worth it when ``nnz > rows + 1`` (Section 2.2)."""
    ptrs = ptrs_from_ids(coo.rows, coo.num_rows)
    return CsrMatrix(coo.shape, ptrs, coo.cols.copy(), coo.values.copy(),
                     validate=False)


def csr_to_coo(csr: CsrMatrix) -> CooMatrix:
    """CSR → COO."""
    row_of = np.repeat(np.arange(csr.num_rows, dtype=np.int64),
                       np.diff(csr.ptrs))
    return CooMatrix(csr.shape, row_of, csr.idxs.copy(), csr.vals.copy(),
                     sum_duplicates=False)


def coo_to_dcsr(coo: CooMatrix) -> DcsrMatrix:
    """COO → DCSR.  Worth it when ``rows > 2 x nonempty_rows``."""
    if coo.nnz == 0:
        return DcsrMatrix(coo.shape, [], [0], [], [], validate=False)
    boundaries = np.concatenate(([True], coo.rows[1:] != coo.rows[:-1]))
    row_idxs = coo.rows[boundaries]
    counts = np.diff(np.concatenate((np.flatnonzero(boundaries),
                                     [coo.nnz])))
    ptrs = np.concatenate(([0], np.cumsum(counts)))
    return DcsrMatrix(coo.shape, row_idxs, ptrs, coo.cols.copy(),
                      coo.values.copy(), validate=False)


def coo_to_csf(coo: CooTensor, mode_order: tuple[int, ...] | None = None
               ) -> CsfTensor:
    """COO → CSF, optionally permuting the mode order first.

    The CSF tree is built top-down: each level's nodes are the distinct
    coordinate prefixes of that length.
    """
    n = coo.ndim
    if mode_order is None:
        mode_order = tuple(range(n))
    if sorted(mode_order) != list(range(n)):
        raise ConversionError(f"mode_order {mode_order} is not a permutation")
    coords = [np.asarray(coo.coords[m]) for m in mode_order]
    vals = np.asarray(coo.values)
    shape = tuple(coo.shape[m] for m in mode_order)
    if n >= 2 and mode_order != tuple(range(n)):
        order = lex_order(coords, shape)
        coords = [c[order] for c in coords]
        vals = vals[order]

    nnz = vals.size
    ptrs: list[np.ndarray] = []
    idxs: list[np.ndarray] = []
    # prefix_id[k] identifies which level-(l-1) node nnz k belongs to.
    prefix_id = np.zeros(nnz, dtype=np.int64)
    num_parents = 1
    for lvl in range(n):
        c = coords[lvl]
        if nnz:
            change = np.concatenate(
                ([True],
                 (prefix_id[1:] != prefix_id[:-1]) | (c[1:] != c[:-1]))
            )
            node_of = np.cumsum(change) - 1
            firsts = np.flatnonzero(change)
            level_idxs = c[firsts]
            node_parents = prefix_id[firsts]
        else:
            node_of = prefix_id
            level_idxs = np.zeros(0, dtype=np.int64)
            node_parents = np.zeros(0, dtype=np.int64)
        ptrs.append(ptrs_from_ids(node_parents, num_parents))
        idxs.append(level_idxs)
        prefix_id = node_of
        num_parents = level_idxs.size

    out_vals = np.zeros(num_parents, dtype=np.float64)
    if nnz:
        np.add.at(out_vals, prefix_id, vals)
    return CsfTensor(shape, ptrs, idxs, out_vals, validate=False)
