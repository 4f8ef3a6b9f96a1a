"""The named input suite: M1–M6 matrices and T1–T4 tensors (Table 6).

Each entry records the paper's original dataset, its headline statistics
and its domain, and builds a scaled synthetic stand-in with the same
structure.  Three scale presets are provided:

* ``small`` — default; fast enough for unit tests and CI benchmarks.
* ``medium`` — for local experimentation.
* ``paper`` — the original published sizes (slow in pure Python; only
  use for spot checks).

Inputs are memoized per (id, scale) so experiment sweeps do not pay
generation cost repeatedly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from ..errors import WorkloadError
from ..formats.coo import CooTensor
from ..formats.csr import CsrMatrix
from . import matrices as m
from . import tensors as t

SCALES = ("small", "medium", "paper")

#: Row-count divisors per scale preset (paper sizes are O(10M) nnz,
#: far beyond what a pure-Python cycle model can traverse quickly).
_SCALE_DIVISOR = {"small": 256, "medium": 32, "paper": 1}


@dataclass(frozen=True)
class InputSpec:
    """One catalogue entry of Table 6."""

    id: str
    source_name: str
    domain: str
    paper_nnz: int
    paper_rows_or_dims: str
    nnz_per_row: float
    builder: Callable[[str], object]

    def build(self, scale: str = "small"):
        if scale not in SCALES:
            raise WorkloadError(f"unknown scale {scale!r}; pick from {SCALES}")
        return self.builder(scale)


def _scaled(rows: int, scale: str) -> int:
    return max(64, rows // _SCALE_DIVISOR[scale])


def _band(rows: int, paper_rows: int, paper_band: int,
          nnz_per_row: int) -> int:
    """Scale a band width with the row count so the band covers the
    same fraction of the matrix (keeps A·Aᵀ density and gather locality
    comparable), floored so rows still fit their non-zeros."""
    scaled = int(paper_band * rows / paper_rows)
    return max(int(nnz_per_row * 1.5), scaled)


def _m1(scale: str) -> CsrMatrix:
    # af_0_k101: 504K rows, ~35 nnz/row, sheet-metal FEM (banded).
    rows = _scaled(504_000, scale)
    return m.banded_matrix(rows, nnz_per_row=35,
                           bandwidth=_band(rows, 504_000, 600, 35),
                           seed=101)


def _m2(scale: str) -> CsrMatrix:
    # atmosmodm: 1.5M rows, ~7 nnz/row, 3-D atmospheric stencil.
    n = _scaled(1_500_000, scale)
    side = max(8, round(n ** (1.0 / 3.0)))
    return m.stencil_3d_matrix(side, side, side, points=7, seed=102)


def _m3(scale: str) -> CsrMatrix:
    # Freescale1: 3.4M rows, ~5 nnz/row, circuit simulation (power law).
    return m.power_law_matrix(_scaled(3_400_000, scale), nnz_per_row=5.0,
                              seed=103)


def _m4(scale: str) -> CsrMatrix:
    # gb_osm: 7.7M rows, ~2 nnz/row, Great-Britain street network.
    return m.road_network_matrix(_scaled(7_700_000, scale), seed=104)


def _m5(scale: str) -> CsrMatrix:
    # halfb: 225K rows, ~55 nnz/row, structural (wide band).
    rows = _scaled(225_000, scale)
    return m.banded_matrix(rows, nnz_per_row=55,
                           bandwidth=_band(rows, 225_000, 900, 55),
                           seed=105)


def _m6(scale: str) -> CsrMatrix:
    # test1: 393K rows, ~24 nnz/row, semiconductor process simulation.
    rows = _scaled(393_000, scale)
    return m.banded_matrix(rows, nnz_per_row=24,
                           bandwidth=_band(rows, 393_000, 3000, 24),
                           seed=106)


def _tensor_dims(dims: tuple[int, ...], nnz: int, scale: str
                 ) -> tuple[tuple[int, ...], int]:
    div = _SCALE_DIVISOR[scale]
    # Shrink nnz linearly and mode extents by the cube root of the
    # divisor so density profiles stay comparable.
    mode_div = max(1.0, div ** (1.0 / 3.0))
    scaled_dims = tuple(max(8, int(d / mode_div)) for d in dims)
    return scaled_dims, max(512, nnz // div)


def _t1(scale: str) -> CooTensor:
    # Chicago-crime: 6K x 24 x 77 x 32, 5M nnz, count data.
    dims, nnz = _tensor_dims((6_186, 24, 77, 32), 5_000_000, scale)
    return t.clustered_tensor(dims, nnz, skews=[0.5, 0.0, 1.0, 1.5],
                              seed=201)


def _t2(scale: str) -> CooTensor:
    # LBNL-network: 2K x 4K x 2K x 4K x 866K, 2M nnz, network flows.
    dims, nnz = _tensor_dims((1_605, 4_198, 1_631, 4_209, 868_131),
                             1_700_000, scale)
    return t.clustered_tensor(dims, nnz, skews=[1.5, 1.5, 1.5, 1.5, 2.0],
                              seed=202)


def _t3(scale: str) -> CooTensor:
    # NIPS publications: 2.5K x 2.9K x 14K x 17, 3M nnz, text counts.
    dims, nnz = _tensor_dims((2_482, 2_862, 14_036, 17), 3_100_000, scale)
    return t.clustered_tensor(dims, nnz, skews=[0.5, 0.5, 1.5, 0.0],
                              seed=203)


def _t4(scale: str) -> CooTensor:
    # Uber pickups: 183 x 24 x 1140 x 1717, 3M nnz, spatial counts.
    dims, nnz = _tensor_dims((183, 24, 1_140, 1_717), 3_300_000, scale)
    return t.clustered_tensor(dims, nnz, skews=[0.0, 0.0, 1.0, 1.0],
                              seed=204)


MATRIX_SUITE: dict[str, InputSpec] = {
    "M1": InputSpec("M1", "af_0_k101", "structural", 17_600_000,
                    "504K", 35, _m1),
    "M2": InputSpec("M2", "atmosmodm", "fluid dynamics", 10_300_000,
                    "1.5M", 7, _m2),
    "M3": InputSpec("M3", "Freescale1", "circuit simulation", 17_100_000,
                    "3.4M", 5, _m3),
    "M4": InputSpec("M4", "gb_osm", "street network", 13_300_000,
                    "7.7M", 2, _m4),
    "M5": InputSpec("M5", "halfb", "structural", 12_400_000,
                    "225K", 55, _m5),
    "M6": InputSpec("M6", "test1", "semiconductor", 9_400_000,
                    "393K", 24, _m6),
}

TENSOR_SUITE: dict[str, InputSpec] = {
    "T1": InputSpec("T1", "Chicago-crime", "count data", 5_000_000,
                    "6K x 24 x 77 x 32", 0, _t1),
    "T2": InputSpec("T2", "LBNL-network", "network flows", 1_700_000,
                    "2K x 4K x 2K x 4K x 866K", 0, _t2),
    "T3": InputSpec("T3", "NIPS pubs", "text counts", 3_100_000,
                    "3K x 3K x 14K x 17", 0, _t3),
    "T4": InputSpec("T4", "Uber pickups", "spatial counts", 3_300_000,
                    "183 x 24 x 1140 x 1717", 0, _t4),
}


def matrix_ids() -> list[str]:
    return sorted(MATRIX_SUITE)


def tensor_ids() -> list[str]:
    return sorted(TENSOR_SUITE)


# The loaders keep one scale's suite resident: sweeps revisit every
# input of a scale, and a long-running server that switches scales
# holds at most one suite's inputs.
@lru_cache(maxsize=len(MATRIX_SUITE))
def load_matrix(input_id: str, scale: str = "small") -> CsrMatrix:
    """Build (and memoize) one matrix of the suite."""
    if input_id not in MATRIX_SUITE:
        raise WorkloadError(
            f"unknown matrix id {input_id!r}; known: {matrix_ids()}"
        )
    return MATRIX_SUITE[input_id].build(scale)


@lru_cache(maxsize=len(TENSOR_SUITE))
def load_tensor(input_id: str, scale: str = "small") -> CooTensor:
    """Build (and memoize) one tensor of the suite."""
    if input_id not in TENSOR_SUITE:
        raise WorkloadError(
            f"unknown tensor id {input_id!r}; known: {tensor_ids()}"
        )
    return TENSOR_SUITE[input_id].build(scale)
