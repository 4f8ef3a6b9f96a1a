"""Sparse Tensor Times Vector: ``Z_ij = A_ijk B_k`` (CSF x dense).

Contracts the last mode of an order-3 CSF tensor against a dense
vector; the output keeps the leading two modes' sparsity.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError
from ..formats.csf import CsfTensor


def spttv(a: CsfTensor, b) -> dict[tuple[int, int], float]:
    """Reference SpTTV returning an (i, j) → value map (the natural
    sparse output structure)."""
    if a.ndim != 3:
        raise WorkloadError("spttv expects an order-3 CSF tensor")
    b = np.asarray(b, dtype=np.float64)
    if b.size != a.shape[2]:
        raise WorkloadError("vector length must match the last mode")
    out: dict[tuple[int, int], float] = {}
    for i_node in range(a.idxs[0].size):
        i = int(a.idxs[0][i_node])
        jb, je = int(a.ptrs[1][i_node]), int(a.ptrs[1][i_node + 1])
        for j_node in range(jb, je):
            j = int(a.idxs[1][j_node])
            kb, ke = int(a.ptrs[2][j_node]), int(a.ptrs[2][j_node + 1])
            ks = a.idxs[2][kb:ke]
            acc = float(np.dot(a.vals[kb:ke], b[ks]))
            out[(i, j)] = acc
    return out

