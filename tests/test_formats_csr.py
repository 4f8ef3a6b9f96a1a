"""Tests for the CSR format (Figure 1b)."""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.formats.convert import coo_to_csr
from repro.formats.csr import CsrMatrix


@pytest.fixture
def figure1_csr(figure1_matrix):
    return coo_to_csr(figure1_matrix)


class TestFigure1:
    """The exact arrays the paper's Figure 1b shows."""

    def test_row_ptrs(self, figure1_csr):
        assert figure1_csr.ptrs.tolist() == [0, 1, 2, 2, 4]

    def test_col_idxs(self, figure1_csr):
        assert figure1_csr.idxs.tolist() == [0, 2, 1, 3]

    def test_vals(self, figure1_csr):
        assert figure1_csr.vals.tolist() == [1.0, 2.0, 3.0, 4.0]


class TestValidation:
    def test_bad_ptr_length(self):
        with pytest.raises(FormatError):
            CsrMatrix((2, 2), [0, 1], [0], [1.0])

    def test_ptrs_must_start_at_zero(self):
        with pytest.raises(FormatError):
            CsrMatrix((2, 2), [1, 1, 1], [], [])

    def test_ptrs_must_be_monotonic(self):
        with pytest.raises(FormatError):
            CsrMatrix((2, 2), [0, 2, 1], [0, 1], [1.0, 2.0])

    def test_last_ptr_must_cover_nnz(self):
        with pytest.raises(FormatError):
            CsrMatrix((2, 2), [0, 1, 1], [0, 1], [1.0, 2.0])

    def test_column_out_of_bounds(self):
        with pytest.raises(FormatError):
            CsrMatrix((2, 2), [0, 1, 1], [5], [1.0])

    def test_unsorted_columns_in_row(self):
        with pytest.raises(FormatError):
            CsrMatrix((1, 4), [0, 2], [2, 1], [1.0, 2.0])

    def test_duplicate_columns_in_row(self):
        with pytest.raises(FormatError):
            CsrMatrix((1, 4), [0, 2], [1, 1], [1.0, 2.0])


class TestOperations:
    def test_row_access(self, figure1_csr):
        beg, end = figure1_csr.row_slice(3)
        assert figure1_csr.idxs[beg:end].tolist() == [1, 3]
        assert figure1_csr.vals[beg:end].tolist() == [3.0, 4.0]

    def test_row_slice(self, figure1_csr):
        assert figure1_csr.row_slice(2) == (2, 2)  # empty row

    def test_row_nnz(self, figure1_csr):
        assert figure1_csr.row_nnz().tolist() == [1, 1, 0, 2]

    def test_transpose_matches_numpy(self, small_csr):
        t = small_csr.transpose()
        assert np.allclose(t.to_dense(), small_csr.to_dense().T)

    def test_transpose_keeps_sorted_rows(self, small_csr):
        t = small_csr.transpose()
        for i in range(t.num_rows):
            beg, end = t.row_slice(i)
            idxs = t.idxs[beg:end]
            assert np.all(np.diff(idxs) > 0)

    def test_dense_round_trip(self, small_csr):
        again = CsrMatrix.from_dense(small_csr.to_dense())
        assert again == small_csr

    def test_nbytes(self, figure1_csr):
        expected = 5 * 4 + 4 * (4 + 8)
        assert figure1_csr.nbytes() == expected
