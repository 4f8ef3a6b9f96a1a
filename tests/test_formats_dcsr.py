"""Tests for the DCSR format (Figure 1c)."""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.formats.convert import coo_to_dcsr
from repro.formats.dcsr import DcsrMatrix


@pytest.fixture
def figure1_dcsr(figure1_matrix):
    return coo_to_dcsr(figure1_matrix)


class TestFigure1:
    """DCSR drops the empty row 2 of Figure 1's matrix."""

    def test_row_idxs_skip_empty_rows(self, figure1_dcsr):
        assert figure1_dcsr.row_idxs.tolist() == [0, 1, 3]

    def test_ptrs(self, figure1_dcsr):
        assert figure1_dcsr.ptrs.tolist() == [0, 1, 2, 4]

    def test_idxs_and_vals(self, figure1_dcsr):
        assert figure1_dcsr.idxs.tolist() == [0, 2, 1, 3]
        assert figure1_dcsr.vals.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_nonempty_row_count(self, figure1_dcsr):
        assert figure1_dcsr.num_nonempty_rows == 3


class TestValidation:
    def test_empty_row_rejected(self):
        # DCSR stores only non-empty rows: equal consecutive ptrs are
        # a format violation.
        with pytest.raises(FormatError):
            DcsrMatrix((3, 3), [0, 1], [0, 1, 1], [0], [1.0])

    def test_row_idxs_must_increase(self):
        with pytest.raises(FormatError):
            DcsrMatrix((3, 3), [1, 0], [0, 1, 2], [0, 0], [1.0, 1.0])

    def test_row_index_out_of_bounds(self):
        with pytest.raises(FormatError):
            DcsrMatrix((2, 3), [5], [0, 1], [0], [1.0])

    def test_unsorted_columns(self):
        with pytest.raises(FormatError):
            DcsrMatrix((2, 4), [0], [0, 2], [2, 1], [1.0, 1.0])


class TestOperations:
    def test_to_dense(self, figure1_dcsr, figure1_matrix):
        assert np.allclose(figure1_dcsr.to_dense(),
                           figure1_matrix.to_dense())

    def test_dense_round_trip(self, small_dcsr):
        again = DcsrMatrix.from_dense(small_dcsr.to_dense())
        assert again == small_dcsr

    def test_nbytes_smaller_than_csr_when_hypersparse(self):
        # One non-zero in a 1000-row matrix: DCSR's advantage case.
        dense = np.zeros((1000, 4))
        dense[500, 2] = 1.0
        dcsr = DcsrMatrix.from_dense(dense)
        from repro.formats.csr import CsrMatrix

        csr = CsrMatrix.from_dense(dense)
        assert dcsr.nbytes() < csr.nbytes() / 10
