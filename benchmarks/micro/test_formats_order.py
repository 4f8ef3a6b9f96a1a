"""Lexicographic ordering microbench: packed-key ``lex_order`` vs
``np.lexsort``.

Every COO construction and permuted-mode CSF build sorts its
coordinates through ``repro.types.lex_order``; ``np.lexsort`` is its
reference and its fallback.  The two inputs mirror the medium-scale
Table 6 stand-ins: an order-2 matrix of 600k non-zeros and an order-4
tensor of 100k with skewed extents.  Equality of the two permutations
is pinned by ``tests/test_formats_order.py``; here only the speed
ratio is gated.
"""

from __future__ import annotations

import numpy as np

from repro.types import lex_order


def _coords(rng, shape, nnz) -> list[np.ndarray]:
    return [rng.integers(0, s, nnz) for s in shape]


def test_lex_order_vs_lexsort(best_of, micro_baselines):
    rng = np.random.default_rng(31)
    inputs = [((50_000, 50_000), _coords(rng, (50_000, 50_000), 600_000)),
              ((2_000, 24, 1_500, 400),
               _coords(rng, (2_000, 24, 1_500, 400), 100_000))]

    def run_lexsort() -> None:
        for _, coords in inputs:
            np.lexsort(tuple(reversed(coords)))

    def run_packed() -> None:
        for shape, coords in inputs:
            lex_order(coords, shape)

    ratio = best_of(run_lexsort) / best_of(run_packed)
    floor = micro_baselines["lex_order_min_ratio"]
    assert ratio >= floor, (
        f"lex_order speedup regressed: {ratio:.2f}x < {floor}x vs "
        f"np.lexsort")
