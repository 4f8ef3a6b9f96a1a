"""Matrix-kernel correctness tests against the einsum oracle."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.formats.csr import CsrMatrix
from repro.generators import uniform_random_matrix
from repro.kernels import spkadd, spmspm, split_rows_cyclic
from repro.kernels.spmspm import _symbolic_counts_fast
from tests.oracle import pattern_counts, with_small_ints


class TestSymbolicCounts:
    """SpMSpM's symbolic phase: the per-row output sizes of ``A @ B``
    are the oracle's pattern counts of ``ik,kj->ij``."""

    def test_nonsquare_with_empty_rows(self):
        a = uniform_random_matrix(30, 20, 2, seed=3).to_dense()
        b = uniform_random_matrix(20, 45, 3, seed=4).to_dense()
        a[[0, 7, 8, 29]] = 0.0
        b[[1, 2, 19]] = 0.0
        a, b = CsrMatrix.from_dense(a), CsrMatrix.from_dense(b)
        counts = _symbolic_counts_fast(a, b)
        expected = pattern_counts("ik,kj->ij", a, b)
        assert np.array_equal(counts, expected)
        assert expected[[0, 7, 8, 29]].sum() == 0 < expected.sum()

    def test_wide_b_packs_int64_keys(self):
        # B has more than 2**16 columns, so ``row << 16 | col`` would
        # carry column 65540 into the row bits: the counts must come
        # from the int64 packing.
        a = CsrMatrix((2, 3), [0, 2, 3], [0, 1, 2], [1.0, 1.0, 1.0])
        b = CsrMatrix((3, 70_000), [0, 2, 4, 5], [4, 65_540, 65_540, 69_999, 4],
                      np.ones(5))
        counts = _symbolic_counts_fast(a, b)
        assert counts.tolist() == [3, 1]
        assert np.array_equal(counts, pattern_counts("ik,kj->ij", a, b))

    @pytest.mark.parametrize("rows, cols", [
        (2**15, 40), (2**15 + 1, 40),     # A rows at the int32 pack's edge
        (50, 2**16), (50, 2**16 + 1),     # B columns at the same edge
    ])
    def test_pack_boundaries(self, rows, cols):
        # A's last row and B's last column are reached, so a key packed
        # past its bits would carry into the neighbouring row
        rng = np.random.default_rng(rows + cols)
        inner = 6
        a = (rng.random((rows, inner)) < 0.3).astype(float)
        a[-1, 0] = 1.0
        b = np.zeros((inner, cols))
        for k in range(inner):
            b[k, rng.choice(cols, 30, replace=False)] = 1.0
        b[0, -1] = 1.0
        a, b = CsrMatrix.from_dense(a), CsrMatrix.from_dense(b)
        counts = _symbolic_counts_fast(a, b)
        assert counts[-1] > 0
        assert np.array_equal(counts, pattern_counts("ik,kj->ij", a, b))

    def test_empty_product(self):
        # A's columns select only B's empty rows: nothing is scanned
        a = CsrMatrix((3, 4), [0, 2, 2, 3], [1, 3, 1], np.ones(3))
        b = CsrMatrix((4, 5), [0, 2, 2, 4, 4], [0, 4, 1, 2], np.ones(4))
        counts = _symbolic_counts_fast(a, b)
        assert counts.tolist() == [0, 0, 0]
        assert counts.dtype == np.int64
        assert np.array_equal(counts, pattern_counts("ik,kj->ij", a, b))

    # The block tests bound a pass to 64 scanned keys, so every input
    # below runs in many blocks of whole rows.

    def _blocked(self, monkeypatch, a, b) -> np.ndarray:
        monkeypatch.setattr(spmspm, "SYMBOLIC_BLOCK_KEYS", 64)
        a, b = CsrMatrix.from_dense(a), CsrMatrix.from_dense(b)
        counts = _symbolic_counts_fast(a, b)
        assert np.array_equal(counts, pattern_counts("ik,kj->ij", a, b))
        return counts

    def test_blocks_with_empty_rows(self, monkeypatch):
        a = uniform_random_matrix(120, 40, 3, seed=5).to_dense()
        b = uniform_random_matrix(40, 45, 3, seed=6).to_dense()
        empty = [0, 1, 17, *range(50, 70), 119]
        a[empty] = 0.0
        b[[3, 4, 39]] = 0.0
        counts = self._blocked(monkeypatch, a, b)
        assert counts[empty].sum() == 0 < counts.sum()

    def test_row_longer_than_a_block(self, monkeypatch):
        # row 5 scans 30 B rows of 5 columns: 150 keys, a block alone,
        # between blocks of short rows
        a = uniform_random_matrix(12, 30, 2, seed=7).to_dense()
        a[5] = 1.0
        b = np.zeros((30, 210))
        for k in range(30):
            b[k, 7 * k + np.arange(5)] = 1.0
        counts = self._blocked(monkeypatch, a, b)
        assert counts[5] == 150

    def test_more_than_2_15_rows(self, monkeypatch):
        # rows of two to six keys around 2**15 + 10 empty rows: the
        # block that spans them holds rows with keys on both sides,
        # more than 2**15 rows apart, so it packs int64 keys
        rng = np.random.default_rng(9)
        gap = (1 << 15) + 10
        rows = 40 + gap + 40
        a = (rng.random((rows, 6)) < 0.25).astype(float)
        a[np.arange(rows), np.arange(rows) % 6] = 1.0
        a[40:40 + gap] = 0.0
        b = np.zeros((6, 40))
        for k in range(6):
            b[k, [k, k + 1]] = 1.0
        counts = self._blocked(monkeypatch, a, b)
        assert len(set(counts[-40:].tolist())) > 1

    def test_blocks_of_wide_b(self, monkeypatch):
        # B has more than 2**16 columns, so every block packs int64
        # keys; columns past 2**16 are reached from many blocks
        rng = np.random.default_rng(10)
        a = (rng.random((30, 5)) < 0.6).astype(float)
        b = np.zeros((5, 70_000))
        for k in range(5):
            b[k, rng.choice(70_000, 12, replace=False)] = 1.0
        b[:, [4, 65_540, 69_999]] = 1.0
        counts = self._blocked(monkeypatch, a, b)
        assert counts.sum() > 0


class TestSpkadd:
    def test_split_partition_is_exact(self, small_csr):
        parts = split_rows_cyclic(small_csr, 4)
        assert sum(p.nnz for p in parts) == small_csr.nnz
        # row i*k+x of the source equals row i of part x
        src = small_csr.to_dense()
        for x, part in enumerate(parts):
            d = part.to_dense()
            for i in range(part.num_rows):
                orig = i * 4 + x
                if orig < small_csr.num_rows:
                    assert np.allclose(d[i], src[orig])

    def test_sum_matches_dense(self, small_csr):
        parts = split_rows_cyclic(with_small_ints(small_csr), 3)
        z = spkadd(parts)
        expected = sum(p.to_dense() for p in parts)
        assert np.array_equal(z.to_dense(), expected)

    def test_k1_is_identity(self, small_csr):
        parts = split_rows_cyclic(small_csr, 1)
        z = spkadd(parts)
        assert np.array_equal(z.to_dense(), small_csr.to_dense())

    def test_requires_inputs(self):
        with pytest.raises(WorkloadError):
            spkadd([])

    def test_invalid_k(self, small_csr):
        with pytest.raises(WorkloadError):
            split_rows_cyclic(small_csr, 0)
