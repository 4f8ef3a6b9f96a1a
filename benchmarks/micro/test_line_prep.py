"""Line-prep microbench: ``prepare_lines`` on a range stream vs the
reference prep of its addresses.

The stream is shaped like TC's ``L_j idxs``: for every edge (i, j) of
a power-law graph's lower triangle, a scan of row j's neighbour list,
so one short range per edge (about 11M positions over 670k ranges).
The fast prep reads the ranges and builds only the
``SAMPLE_WINDOW`` lines the walk simulates; the reference
(``--reference``) dedups the materialized byte addresses, which are
built before the timer starts, so the gate times prep alone.
Exactness is pinned by ``tests/test_line_prep.py``; here only the
speed ratio is gated.
"""

from __future__ import annotations

import numpy as np

from repro.generators.matrices import power_law_matrix
from repro.kernels.triangle import lower_triangle, triangle_streams
from repro.sim import memsys
from repro.sim.cache import dedup_consecutive, to_lines

LINE_BYTES = 64


def test_range_prep_vs_reference(best_of, micro_baselines):
    l_mat = lower_triangle(power_law_matrix(60_000, 24, seed=5))
    scan = triangle_streams(l_mat)[-1]
    assert scan.label == "L_j idxs"
    addresses = scan.addresses

    def run_reference() -> None:
        dedup_consecutive(to_lines(addresses, LINE_BYTES))

    def run_ranges() -> None:
        memsys.prepare_lines(scan, LINE_BYTES)

    lines, total, _ = memsys.prepare_lines(scan, LINE_BYTES)
    reference = dedup_consecutive(to_lines(addresses, LINE_BYTES))
    assert total == reference.size
    assert np.array_equal(lines, reference[:lines.size])

    ratio = best_of(run_reference) / best_of(run_ranges)
    floor = micro_baselines["line_prep_ranges_min_ratio"]
    assert ratio >= floor, (
        f"range line prep speedup regressed: {ratio:.2f}x < {floor}x "
        f"vs the reference prep of the stream's addresses")
