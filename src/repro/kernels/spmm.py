"""Sparse-matrix x dense-matrix product: ``Z_ij = A_ik B_kj`` (CSR x row-major).

SpMM is SpMV with an extra inner dense loop: instead of looking up one
scalar ``b[k]``, the kernel scans the whole row ``B[k, :]`` (the paper
maps this to an ``IdxFbrT`` primitive on the TMU, see
:mod:`repro.programs.spmm`).  No figure evaluates SpMM, so unlike the
other kernels this one has no ``characterize_*`` baseline: it is the
functional reference only.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError
from ..formats.csr import CsrMatrix


def spmm(a: CsrMatrix, b) -> np.ndarray:
    """Reference SpMM: ``A @ B`` with dense row-major ``B``."""
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2 or b.shape[0] != a.num_cols:
        raise WorkloadError(
            f"B shape {b.shape} incompatible with A cols {a.num_cols}"
        )
    out = np.zeros((a.num_rows, b.shape[1]))
    row_of = np.repeat(np.arange(a.num_rows), np.diff(a.ptrs))
    np.add.at(out, row_of, a.vals[:, None] * b[a.idxs])
    return out
