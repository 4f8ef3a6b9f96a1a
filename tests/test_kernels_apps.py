"""Triangle counting, validated against networkx."""

import tracemalloc

import networkx as nx
import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.formats.csr import CsrMatrix
from repro.generators import load_matrix, uniform_random_matrix
from repro.kernels import triangle_count
from repro.kernels.triangle import lower_triangle


def _symmetric_graph(n=60, p=0.1, seed=3):
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < p).astype(float)
    dense = np.maximum(dense, dense.T)
    np.fill_diagonal(dense, 0.0)
    return CsrMatrix.from_dense(dense)


def _networkx_triangles(adj: CsrMatrix) -> int:
    g = nx.from_numpy_array(adj.to_dense())
    return sum(nx.triangles(g).values()) // 3


def _band_graph(n: int, width: int) -> CsrMatrix:
    """Every pair of nodes at most ``width`` apart is an edge."""
    gap = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return CsrMatrix.from_dense(((gap > 0) & (gap <= width)).astype(float))


def _band_triangles(n: int, width: int) -> int:
    # A triangle is its lowest node k plus two of the next min(width,
    # n - 1 - k) nodes.
    ahead = np.minimum(width, n - 1 - np.arange(n))
    return int((ahead * (ahead - 1) // 2).sum())


class TestTriangleCount:
    @pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129, 200])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_networkx_across_block_edges(self, n, seed):
        # Column indexes straddle the 64-column blocks of the bitsets.
        adj = _symmetric_graph(n, 0.15, seed=seed)
        assert triangle_count(lower_triangle(adj)) == \
            _networkx_triangles(adj)

    def test_dense_graph(self):
        # Every block of the 130-node clique is full (popcount 64), and
        # 130 is not a multiple of 64.
        adj = _band_graph(130, 129)
        assert triangle_count(lower_triangle(adj)) == 130 * 129 * 128 // 6

    def test_band_graph(self):
        adj = _band_graph(300, 70)
        assert triangle_count(lower_triangle(adj)) == \
            _band_triangles(300, 70) == _networkx_triangles(adj)

    def test_empty_rows(self):
        # Nodes 0-9, 50-69 and 140-149 have no edges at all.
        dense = _symmetric_graph(150, 0.2, seed=4).to_dense()
        for lo, hi in ((0, 10), (50, 70), (140, 150)):
            dense[lo:hi, :] = dense[:, lo:hi] = 0.0
        adj = CsrMatrix.from_dense(dense)
        assert triangle_count(lower_triangle(adj)) == \
            _networkx_triangles(adj) > 0

    def test_no_wedges(self):
        # A star: every edge (i, 0) meets row 0 of L, which is empty.
        dense = np.zeros((70, 70))
        dense[0, 1:] = dense[1:, 0] = 1.0
        assert triangle_count(lower_triangle(
            CsrMatrix.from_dense(dense))) == 0

    def test_empty_graph(self):
        assert triangle_count(CsrMatrix((5, 5), [0] * 6, [], [])) == 0

    def test_small_suite_counts(self):
        counts = [triangle_count(lower_triangle(load_matrix(m)))
                  for m in ("M1", "M2", "M3", "M4", "M5", "M6")]
        assert counts == [56741, 0, 713, 101, 61901, 20540]

    def test_allocates_below_wedge_count(self):
        # A band graph has ≈ width wedges per edge; the count must not
        # materialize an int64 per wedge, or even a quarter of one.
        n, width = 400, 200
        lt = lower_triangle(_band_graph(n, width))
        row_nnz = np.diff(lt.ptrs)
        wedges = int(row_nnz[lt.idxs].sum())
        assert wedges >= 20 * lt.nnz
        tracemalloc.start()
        try:
            count = triangle_count(lt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == _band_triangles(n, width)
        assert peak < wedges * 8 / 4

    def test_matches_networkx(self):
        adj = _symmetric_graph()
        assert triangle_count(lower_triangle(adj)) == \
            _networkx_triangles(adj)

    def test_known_triangle(self):
        dense = np.zeros((3, 3))
        dense[[0, 1, 0], [1, 2, 2]] = 1.0
        dense = np.maximum(dense, dense.T)
        adj = CsrMatrix.from_dense(dense)
        assert triangle_count(lower_triangle(adj)) == 1

    def test_triangle_free_graph(self):
        # a path graph has no triangles
        dense = np.zeros((5, 5))
        for i in range(4):
            dense[i, i + 1] = dense[i + 1, i] = 1.0
        assert triangle_count(lower_triangle(
            CsrMatrix.from_dense(dense))) == 0

    def test_lower_triangle_strictness(self):
        adj = _symmetric_graph(20, 0.3)
        lt = lower_triangle(adj)
        row_of = np.repeat(np.arange(lt.num_rows), lt.row_nnz())
        assert np.all(lt.idxs < row_of)

    def test_nonsquare_rejected(self):
        bad = uniform_random_matrix(4, 5, 2, seed=0)
        with pytest.raises(WorkloadError):
            triangle_count(bad)

