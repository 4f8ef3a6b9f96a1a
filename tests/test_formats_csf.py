"""Tests for the CSF format."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FormatError
from repro.formats.convert import coo_to_csf
from repro.formats.coo import CooTensor
from repro.formats.csf import CsfTensor


class TestStructure:
    def test_tree_levels_align(self, small_csf):
        t = small_csf
        assert t.ptrs[0].tolist() == [0, t.idxs[0].size]
        for lvl in range(1, t.ndim):
            assert t.ptrs[lvl].size == t.idxs[lvl - 1].size + 1
            assert t.ptrs[lvl][-1] == t.idxs[lvl].size
        assert t.vals.size == t.idxs[-1].size

    def test_fibers_sorted_and_nonempty(self, small_csf):
        t = small_csf
        for lvl in range(t.ndim):
            ptr = t.ptrs[lvl]
            assert np.all(np.diff(ptr) > 0)
            for f in range(ptr.size - 1):
                seg = t.idxs[lvl][ptr[f]:ptr[f + 1]]
                assert np.all(np.diff(seg) > 0)

    def test_nnz_matches_source(self, small_tensor, small_csf):
        assert small_csf.nnz == small_tensor.nnz


def back_to_coo(csf):
    coords, vals = csf.to_coo_arrays()
    return CooTensor(csf.shape, coords, vals, sum_duplicates=False)


class TestConversionRoundTrips:
    def test_coo_round_trip(self, small_tensor):
        csf = coo_to_csf(small_tensor)
        assert back_to_coo(csf) == small_tensor

    def test_dense_agrees(self, small_tensor):
        csf = coo_to_csf(small_tensor)
        assert np.allclose(csf.to_dense(), small_tensor.to_dense())

    def test_mode_permutation(self, small_tensor):
        csf = coo_to_csf(small_tensor, mode_order=(2, 0, 1))
        expected = np.transpose(small_tensor.to_dense(), (2, 0, 1))
        assert np.allclose(csf.to_dense(), expected)

    @given(st.integers(0, 20))
    @settings(max_examples=15, deadline=None)
    def test_random_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        nnz = int(rng.integers(1, 60))
        coords = [rng.integers(0, 8, nnz) for _ in range(3)]
        t = CooTensor((8, 8, 8), coords, rng.random(nnz))
        assert back_to_coo(coo_to_csf(t)) == t


class TestValidation:
    def test_bad_root_ptrs(self):
        with pytest.raises(FormatError):
            CsfTensor((2, 2), [[0, 5], [0, 1]], [[0], [0]], [1.0])

    def test_level_count_mismatch(self):
        with pytest.raises(FormatError):
            CsfTensor((2, 2), [[0, 1]], [[0], [0]], [1.0])

    def test_vals_must_align_with_leaves(self):
        with pytest.raises(FormatError):
            CsfTensor((2, 2), [[0, 1], [0, 1]], [[0], [0]],
                      [1.0, 2.0])

    def test_storage_beats_coo_for_shared_prefixes(self):
        # 16 nnz all sharing one (i, j) prefix: CSF stores the prefix
        # once, COO sixteen times.
        coords = [np.zeros(16, dtype=np.int64),
                  np.zeros(16, dtype=np.int64),
                  np.arange(16, dtype=np.int64)]
        t = CooTensor((4, 4, 16), coords, np.ones(16))
        csf = coo_to_csf(t)
        assert csf.nbytes() < t.nbytes()
