"""Triangle-count microbench: block-bitset intersection vs wedge
expansion.

``triangle_count`` intersects rows i and j of L per edge (i, j)
through 64-column block bitsets: one lookup per block group of row j.
The reference below is the method it replaced: it builds a closing
key ``i << 32 | k`` for every wedge i-j-k and searches each one in the
sorted edge keys, so its work and memory grow with the wedge count.
The gate times both on the medium stand-ins of M1 and M5, the banded
inputs with the most wedges per edge, and also prints the ratio on
all six medium inputs (not gated: M4, a road network with about one
non-zero per block, makes as many lookups as wedges).
"""

from __future__ import annotations

import numpy as np

from repro.formats.csr import CsrMatrix
from repro.generators import load_matrix
from repro.kernels.triangle import lower_triangle, triangle_count

GATED = ("M1", "M5")


def wedge_count(l: CsrMatrix) -> int:
    """Reference: count the wedges whose closing pair is an edge."""
    if l.nnz == 0:
        return 0
    row_nnz = np.diff(l.ptrs)
    row_of = np.repeat(np.arange(l.num_rows, dtype=np.int64), row_nnz)
    edge_keys = np.sort((row_of << 32) | l.idxs)
    j = l.idxs
    counts = row_nnz[j]
    total = int(counts.sum())
    if total == 0:
        return 0
    i_rep = np.repeat(row_of, counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts,
                                           counts)
    k = l.idxs[np.repeat(l.ptrs[j], counts) + offsets]
    wedge_keys = (i_rep << 32) | k
    pos = np.searchsorted(edge_keys, wedge_keys)
    pos[pos == edge_keys.size] = 0
    return int(np.count_nonzero(edge_keys[pos] == wedge_keys))


def test_block_bitsets_vs_wedges(best_of, micro_baselines):
    ratios = {}
    for input_id in ("M1", "M2", "M3", "M4", "M5", "M6"):
        lt = lower_triangle(load_matrix(input_id, "medium"))
        assert triangle_count(lt) == wedge_count(lt)
        ratios[input_id] = (best_of(lambda: wedge_count(lt))
                            / best_of(lambda: triangle_count(lt)))
    print("triangle_count speedup vs wedge expansion (medium): "
          + ", ".join(f"{k} {v:.2f}x" for k, v in ratios.items()))
    floor = micro_baselines["triangle_count_min_ratio"]
    for input_id in GATED:
        assert ratios[input_id] >= floor, (
            f"triangle_count speedup on medium {input_id} regressed: "
            f"{ratios[input_id]:.2f}x < {floor}x vs wedge expansion")
