"""Conversion round trips between all formats, incl. property tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConversionError
from repro.formats.convert import (
    coo_to_csf,
    coo_to_csr,
    coo_to_dcsr,
    csr_to_coo,
)
from repro.formats.coo import CooMatrix


def random_coo(seed: int, rows: int = 9, cols: int = 11) -> CooMatrix:
    rng = np.random.default_rng(seed)
    nnz = int(rng.integers(0, rows * cols // 2))
    r = rng.integers(0, rows, nnz)
    c = rng.integers(0, cols, nnz)
    return CooMatrix((rows, cols), r, c, rng.random(nnz))


@given(st.integers(0, 200))
@settings(max_examples=40, deadline=None)
def test_coo_csr_round_trip(seed):
    coo = random_coo(seed)
    assert csr_to_coo(coo_to_csr(coo)) == coo


@given(st.integers(0, 200))
@settings(max_examples=25, deadline=None)
def test_all_paths_agree_on_dense(seed):
    coo = random_coo(seed)
    dense = coo.to_dense()
    assert np.allclose(coo_to_csr(coo).to_dense(), dense)
    assert np.allclose(coo_to_dcsr(coo).to_dense(), dense)


def test_csf_permutation_must_be_valid(small_tensor):
    with pytest.raises(ConversionError):
        coo_to_csf(small_tensor, mode_order=(0, 0, 1))


def test_csf_round_trip_with_permutation(small_tensor):
    csf = coo_to_csf(small_tensor, mode_order=(1, 2, 0))
    expected = np.transpose(small_tensor.to_dense(), (1, 2, 0))
    assert np.allclose(csf.to_dense(), expected)


def test_empty_matrix_conversions():
    coo = CooMatrix((5, 5), [], [], [])
    csr = coo_to_csr(coo)
    dcsr = coo_to_dcsr(coo)
    assert csr.nnz == 0 and dcsr.nnz == 0
    assert csr_to_coo(csr).nnz == 0
