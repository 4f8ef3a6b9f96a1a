"""Tests for the COO format."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FormatError
from repro.formats.coo import CooMatrix, CooTensor


class TestConstruction:
    def test_sorted_lexicographically(self):
        t = CooMatrix((4, 4), [3, 0, 1], [0, 2, 1], [1.0, 2.0, 3.0])
        assert t.rows.tolist() == [0, 1, 3]
        assert t.cols.tolist() == [2, 1, 0]
        assert t.values.tolist() == [2.0, 3.0, 1.0]

    def test_duplicates_summed(self):
        t = CooMatrix((2, 2), [0, 0, 1], [1, 1, 0], [1.0, 2.5, 4.0])
        assert t.nnz == 2
        assert t.values.tolist() == [3.5, 4.0]

    def test_duplicates_kept_when_disabled(self):
        t = CooMatrix((2, 2), [0, 0], [1, 1], [1.0, 2.0],
                      sum_duplicates=False)
        assert t.nnz == 2

    def test_out_of_bounds_coordinate_rejected(self):
        with pytest.raises(FormatError):
            CooMatrix((2, 2), [0, 2], [0, 0], [1.0, 1.0])

    def test_negative_coordinate_rejected(self):
        with pytest.raises(FormatError):
            CooMatrix((2, 2), [0, -1], [0, 0], [1.0, 1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(FormatError):
            CooMatrix((2, 2), [0], [0, 1], [1.0, 1.0])

    def test_wrong_arity_rejected(self):
        with pytest.raises(FormatError):
            CooTensor((2, 2, 2), [[0], [0]], [1.0])

    def test_empty_tensor(self):
        t = CooTensor((3, 3), [[], []], [])
        assert t.nnz == 0
        assert np.array_equal(t.to_dense(), np.zeros((3, 3)))


class TestRoundTrips:
    def test_dense_round_trip(self, figure1_matrix):
        dense = figure1_matrix.to_dense()
        again = CooMatrix.from_dense(dense)
        assert again == figure1_matrix

    def test_order3_dense_round_trip(self, small_tensor):
        dense = small_tensor.to_dense()
        again = CooTensor.from_dense(dense)
        assert again == small_tensor

    @given(st.integers(0, 30))
    @settings(max_examples=25, deadline=None)
    def test_random_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        dense = rng.random((6, 7)) * (rng.random((6, 7)) < 0.4)
        t = CooMatrix.from_dense(dense)
        assert np.allclose(t.to_dense(), dense)


class TestProperties:
    def test_nbytes_scales_with_nnz(self, small_coo):
        per_nnz = small_coo.nbytes() / small_coo.nnz
        assert per_nnz == pytest.approx(2 * 4 + 8)

    def test_shape_and_ndim(self, small_tensor):
        assert small_tensor.ndim == 3
        assert small_tensor.shape == (20, 16, 12)

    def test_matrix_accessors(self, figure1_matrix):
        assert figure1_matrix.num_rows == 4
        assert figure1_matrix.nnz == 4

    def test_repr_mentions_shape(self, figure1_matrix):
        assert "shape=(4, 4)" in repr(figure1_matrix)
        assert "nnz=4" in repr(figure1_matrix)
