"""The one stable ordering primitive and the format code built on it.

``types.stable_order`` and ``types.lex_order`` must return exactly the
permutation ``np.argsort(kind="stable")`` / ``np.lexsort`` return, at
every packing width and in the fallbacks.  The format operations that
now sort or count through them are pinned array for array against the
previous implementations, kept here as oracles.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.workloads import as_order3
from repro.formats.coo import CooMatrix, CooTensor
from repro.formats.convert import (coo_to_csf, coo_to_csr, coo_to_dcsr,
                                   csr_to_coo)
from repro.formats.csr import CsrMatrix
from repro.formats.dcsr import DcsrMatrix
from repro.generators.matrices import uniform_random_matrix
from repro.generators.suite import load_matrix, load_tensor, tensor_ids
from repro.kernels import split_rows_cyclic
from repro.kernels.triangle import lower_triangle
from repro.types import lex_order, ptrs_from_ids, stable_order, stable_runs


def _lexsort(coords):
    return np.lexsort(tuple(reversed(coords)))


def _add_at_ptrs(ids, num_groups):
    """The pointer construction ``ptrs_from_ids`` replaced."""
    ptrs = np.zeros(num_groups + 1, dtype=np.int64)
    np.add.at(ptrs, np.asarray(ids) + 1, 1)
    np.cumsum(ptrs, out=ptrs)
    return ptrs


def _assert_sorted_unique(t: CooTensor) -> None:
    if t.nnz > 1:
        assert np.array_equal(lex_order(t.coords, t.shape),
                              np.arange(t.nnz))
        stacked = np.stack(t.coords)
        assert np.all(np.any(stacked[:, 1:] != stacked[:, :-1], axis=0))


class TestStableOrder:
    @pytest.mark.parametrize("n,bound", [(1000, 7), (5000, 1 << 20),
                                         (3000, 1 << 40)])
    def test_matches_stable_argsort(self, rng, n, bound):
        keys = rng.integers(0, bound, n)
        assert np.array_equal(stable_order(keys, bound),
                              np.argsort(keys, kind="stable"))

    @pytest.mark.parametrize("keys", [[], [5]])
    def test_empty_and_single(self, keys):
        keys = np.array(keys, dtype=np.int64)
        got = stable_order(keys, 6)
        assert np.array_equal(got, np.argsort(keys, kind="stable"))
        assert got.size == keys.size

    def test_int32_limit(self, rng):
        # 1024 positions take 10 bits; keys of 21 bits fill 31 exactly.
        n, bound = 1024, 1 << 21
        keys = rng.integers(bound - 4, bound, n)
        got = stable_order(keys, bound)
        assert got.dtype == np.int32
        assert np.array_equal(got, np.argsort(keys, kind="stable"))
        assert stable_order(keys, bound + 1).dtype == np.int64

    def test_int64_limit(self, rng):
        n, bound = 1024, 1 << 53
        keys = rng.integers(bound - 4, bound, n)
        got = stable_order(keys, bound)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.argsort(keys, kind="stable"))

    def test_argsort_fallback_beyond_63_bits(self, rng):
        n, bound = 1024, (1 << 53) + 1
        keys = rng.integers((1 << 53) - 4, bound, n)
        assert np.array_equal(stable_order(keys, bound),
                              np.argsort(keys, kind="stable"))

    def test_small_unsigned_keys(self, rng):
        keys = rng.integers(0, 8, 4000).astype(np.uint8)
        assert np.array_equal(stable_order(keys, 8),
                              np.argsort(keys, kind="stable"))


class TestStableRuns:
    @pytest.mark.parametrize("n,bound", [(1000, 7), (5000, 1 << 20),
                                         (3000, 1 << 40),
                                         (1024, (1 << 53) + 1)])
    def test_order_and_equal_neighbours(self, rng, n, bound):
        """int32 pack, int64 pack and the argsort fallback: the order is
        :func:`stable_order`'s and ``same`` marks equal sorted keys."""
        keys = rng.integers(max(0, bound - 40), bound, n)
        order, same = stable_runs(keys, bound)
        assert np.array_equal(order, stable_order(keys, bound))
        ordered = keys[order]
        assert np.array_equal(same, ordered[1:] == ordered[:-1])
        assert same.any() and not same.all()

    @pytest.mark.parametrize("keys", [[], [5]])
    def test_empty_and_single(self, keys):
        order, same = stable_runs(np.array(keys, dtype=np.int64), 6)
        assert order.size == len(keys)
        assert same.size == 0


class TestLexOrder:
    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_matches_lexsort_with_duplicates(self, rng, order):
        shape = tuple(int(s) for s in rng.integers(2, 40, order))
        coords = [rng.integers(0, s, 3000) for s in shape]
        # repeat a block of tuples so equal keys must keep input order
        coords = [np.concatenate((c, c[:500])) for c in coords]
        assert np.array_equal(lex_order(coords, shape), _lexsort(coords))

    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_single(self, rng, n):
        shape = (5, 6, 7)
        coords = [rng.integers(0, s, n) for s in shape]
        got = lex_order(coords, shape)
        assert got.size == n
        assert np.array_equal(got, _lexsort(coords))

    def test_packs_at_int32_limit(self, rng):
        # extent product 2^21 plus 10 position bits: exactly 31 bits
        shape = (1 << 10, 1 << 11)
        coords = [rng.integers(s - 3, s, 1024) for s in shape]
        got = lex_order(coords, shape)
        assert got.dtype == np.int32
        assert np.array_equal(got, _lexsort(coords))

    def test_packs_at_int64_limit(self, rng):
        shape = (1 << 26, 1 << 27)
        coords = [rng.integers(s - 3, s, 1024) for s in shape]
        got = lex_order(coords, shape)
        assert got.dtype == np.int64
        assert np.array_equal(got, _lexsort(coords))

    def test_lexsort_fallback_when_extents_overflow(self, rng):
        shape = (1 << 30, 1 << 30, 1 << 30)
        coords = [rng.integers(0, 4, 2000) * (s // 4) for s in shape]
        assert np.array_equal(lex_order(coords, shape), _lexsort(coords))

    def test_coo_construction_sorts_like_lexsort(self, rng):
        shape = (30, 20, 10, 5)
        coords = [rng.integers(0, s, 2000) for s in shape]
        vals = rng.random(2000)
        t = CooTensor(shape, coords, vals, sum_duplicates=False)
        order = _lexsort(coords)
        assert all(np.array_equal(a, c[order])
                   for a, c in zip(t.coords, coords))
        assert np.array_equal(t.values, vals[order])


def _transpose_oracle(a: CsrMatrix) -> CsrMatrix:
    rows, cols = a.shape
    row_of = np.repeat(np.arange(rows, dtype=np.int64), np.diff(a.ptrs))
    order = np.argsort(a.idxs, kind="stable")
    return CsrMatrix((cols, rows), _add_at_ptrs(a.idxs, cols),
                     row_of[order], a.vals[order], validate=False)


def _csf_oracle(coo: CooTensor, mode_order):
    coords = [coo.coords[m] for m in mode_order]
    order = _lexsort(coords)
    return [c[order] for c in coords], coo.values[order]


def _assert_csr_identical(got: CsrMatrix, want: CsrMatrix) -> None:
    assert got.shape == want.shape
    for g, w in ((got.ptrs, want.ptrs), (got.idxs, want.idxs),
                 (got.vals, want.vals)):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


class TestFormatOutputsUnchanged:
    @pytest.mark.parametrize("input_id", ["M1", "M4", "M6"])
    def test_transpose(self, input_id):
        a = load_matrix(input_id)
        _assert_csr_identical(a.transpose(), _transpose_oracle(a))

    def test_transpose_empty(self):
        a = CsrMatrix((3, 4), np.zeros(4, dtype=np.int64), [], [])
        _assert_csr_identical(a.transpose(), _transpose_oracle(a))

    @pytest.mark.parametrize("input_id", ["T1", "T3"])
    def test_csf_permuted_modes(self, input_id):
        t = as_order3(load_tensor(input_id))
        csf = coo_to_csf(t, mode_order=(2, 1, 0))
        coords, vals = _csf_oracle(t, (2, 1, 0))
        got_coords, got_vals = csf.to_coo_arrays()
        assert all(np.array_equal(g, w) for g, w in zip(got_coords, coords))
        assert np.array_equal(got_vals, vals)
        # level pointers: one child count per parent node, as np.add.at
        # built them
        prefix = np.zeros(vals.size, dtype=np.int64)
        num_parents = 1
        for lvl, c in enumerate(coords):
            change = np.concatenate(
                ([True], (prefix[1:] != prefix[:-1]) | (c[1:] != c[:-1])))
            firsts = np.flatnonzero(change)
            assert np.array_equal(csf.ptrs[lvl],
                                  _add_at_ptrs(prefix[firsts], num_parents))
            prefix = np.cumsum(change) - 1
            num_parents = firsts.size

    def test_bincount_pointers(self, rng):
        for ids, groups in ((np.sort(rng.integers(0, 50, 700)), 50),
                            (rng.integers(0, 9, 300), 12),
                            (np.zeros(0, dtype=np.int64), 4)):
            got = ptrs_from_ids(ids, groups)
            want = _add_at_ptrs(ids, groups)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_pointer_builders(self, rng):
        coo = csr_to_coo(load_matrix("M2"))
        csr = coo_to_csr(coo)
        assert np.array_equal(csr.ptrs, _add_at_ptrs(coo.rows, coo.num_rows))
        dense = (rng.random((40, 30)) < 0.1) * rng.random((40, 30))
        r, _ = np.nonzero(dense)
        assert np.array_equal(CsrMatrix.from_dense(dense).ptrs,
                              _add_at_ptrs(r, 40))
        a = uniform_random_matrix(80, 80, 6, seed=3)
        low = lower_triangle(a)
        row_of = np.repeat(np.arange(80), np.diff(a.ptrs))
        assert np.array_equal(low.ptrs,
                              _add_at_ptrs(row_of[a.idxs < row_of], 80))
        dense[::3] = 0  # DCSR drops the empty rows
        dcsr = coo_to_dcsr(CooMatrix.from_dense(dense))
        rows, compacted = np.unique(np.nonzero(dense)[0], return_inverse=True)
        assert np.array_equal(dcsr.row_idxs, rows)
        assert np.array_equal(dcsr.ptrs, _add_at_ptrs(compacted, rows.size))


def _split_oracle(a: CsrMatrix, k: int):
    """The k-filter loop ``split_rows_cyclic`` used to run, re-sorting
    each part instead of trusting its order."""
    out_rows = -(-a.num_rows // k)
    coo = csr_to_coo(a)
    outputs = []
    for x in range(k):
        pick = (coo.rows % k) == x
        part = CooMatrix((out_rows, a.num_cols), coo.rows[pick] // k,
                         coo.cols[pick], coo.values[pick],
                         sum_duplicates=False)
        outputs.append(coo_to_dcsr(part))
    return outputs


class TestTrustedAssumeSorted:
    @pytest.mark.parametrize("input_id,k", [("M1", 8), ("M3", 8),
                                            ("M5", 3), ("M6", 1)])
    def test_split_rows_cyclic_matches_filter_loop(self, input_id, k):
        a = load_matrix(input_id)
        got = split_rows_cyclic(a, k)
        want = _split_oracle(a, k)
        assert len(got) == len(want) == k
        for g, w in zip(got, want):
            for name in ("row_idxs", "ptrs", "idxs", "vals"):
                assert np.array_equal(getattr(g, name), getattr(w, name))
            DcsrMatrix(g.shape, g.row_idxs, g.ptrs, g.idxs, g.vals)  # validates
            row_of = np.repeat(g.row_idxs, np.diff(g.ptrs))
            _assert_sorted_unique(CooMatrix(g.shape, row_of, g.idxs, g.vals,
                                            sum_duplicates=False,
                                            assume_sorted=True))

    def test_split_rows_cyclic_more_parts_than_rows(self):
        a = uniform_random_matrix(5, 9, 3, seed=4)
        got = split_rows_cyclic(a, 7)
        for g, w in zip(got, _split_oracle(a, 7)):
            assert np.array_equal(g.row_idxs, w.row_idxs)
            assert np.array_equal(g.idxs, w.idxs)

    @pytest.mark.parametrize("input_id", tensor_ids())
    def test_as_order3_matches_a_sorted_construction(self, input_id):
        t = load_tensor(input_id)
        folded = as_order3(t)
        rebuilt = CooTensor(folded.shape, folded.coords, folded.values)
        assert all(np.array_equal(a, b)
                   for a, b in zip(folded.coords, rebuilt.coords))
        assert np.array_equal(folded.values, rebuilt.values)
        _assert_sorted_unique(folded)
        _assert_sorted_unique(rebuilt)
