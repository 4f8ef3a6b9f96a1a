"""Input generator and suite-registry tests (Table 6)."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.generators import (
    banded_matrix,
    clustered_tensor,
    fixed_nnz_per_row_matrix,
    load_matrix,
    load_tensor,
    matrix_ids,
    power_law_matrix,
    road_network_matrix,
    stencil_3d_matrix,
    tensor_ids,
    uniform_random_matrix,
    uniform_random_tensor,
)
from repro.generators.suite import MATRIX_SUITE, TENSOR_SUITE


class TestGenerators:
    def test_determinism(self):
        a = uniform_random_matrix(50, 50, 3, seed=5)
        b = uniform_random_matrix(50, 50, 3, seed=5)
        assert a == b

    def test_different_seeds_differ(self):
        a = uniform_random_matrix(50, 50, 3, seed=5)
        b = uniform_random_matrix(50, 50, 3, seed=6)
        assert a != b

    def test_banded_stays_in_band(self):
        band = 10
        m = banded_matrix(100, nnz_per_row=4, bandwidth=band, seed=1)
        row_of = np.repeat(np.arange(m.num_rows), m.row_nnz())
        assert np.all(np.abs(m.idxs - row_of) <= band)

    def test_banded_keeps_diagonal(self):
        m = banded_matrix(50, nnz_per_row=3, bandwidth=5, seed=2)
        dense = m.to_dense()
        assert np.all(np.diagonal(dense) != 0)

    def test_stencil_7pt_degree(self):
        m = stencil_3d_matrix(6, 6, 6, points=7, seed=0)
        # interior nodes have exactly 7 neighbours
        interior = m.row_nnz().max()
        assert interior == 7
        assert m.row_nnz().min() >= 4  # corners

    def test_stencil_symmetric(self):
        m = stencil_3d_matrix(4, 4, 4, seed=0)
        d = m.to_dense()
        assert np.allclose(d != 0, (d != 0).T)

    def test_stencil_invalid_points(self):
        from repro.errors import FormatError

        with pytest.raises(FormatError):
            stencil_3d_matrix(4, 4, 4, points=9)

    def test_power_law_is_skewed(self):
        m = power_law_matrix(500, nnz_per_row=4.0, seed=3)
        degrees = np.sort(m.row_nnz())[::-1]
        # top 10% of rows hold well over 10% of the nnz
        top = degrees[: len(degrees) // 10].sum()
        assert top > 0.2 * m.nnz

    def test_road_network_low_degree(self):
        m = road_network_matrix(1000, seed=4)
        assert 1.5 < m.nnz / m.num_rows < 4.5

    def test_fixed_nnz_per_row(self):
        m = fixed_nnz_per_row_matrix(32, 8, seed=0)
        assert np.all(m.row_nnz() == 8)
        assert np.all(m.idxs < 8)  # columns 0..n-1, as Figure 12c says

    def test_clustered_tensor_shapes(self):
        t = clustered_tensor((10, 20, 30), 200, skews=[0, 1, 2], seed=1)
        assert t.shape == (10, 20, 30)
        assert 0 < t.nnz <= 200

    def test_uniform_tensor(self):
        t = uniform_random_tensor((5, 5, 5), 50, seed=2)
        assert t.ndim == 3


class TestSuite:
    def test_ids(self):
        assert matrix_ids() == ["M1", "M2", "M3", "M4", "M5", "M6"]
        assert tensor_ids() == ["T1", "T2", "T3", "T4"]

    def test_unknown_id_rejected(self):
        with pytest.raises(WorkloadError):
            load_matrix("M9")
        with pytest.raises(WorkloadError):
            load_tensor("T9")

    def test_unknown_scale_rejected(self):
        with pytest.raises(WorkloadError):
            load_matrix("M1", "gigantic")

    def test_memoization(self):
        assert load_matrix("M1", "small") is load_matrix("M1", "small")

    @pytest.mark.parametrize("input_id", ["M1", "M2", "M3", "M4", "M5",
                                          "M6"])
    def test_nnz_per_row_tracks_paper(self, input_id):
        spec = MATRIX_SUITE[input_id]
        m = load_matrix(input_id, "small")
        generated = m.nnz / max(1, m.num_rows)
        if spec.nnz_per_row >= 5:
            assert generated == pytest.approx(spec.nnz_per_row,
                                              rel=0.45)
        else:
            assert generated == pytest.approx(spec.nnz_per_row,
                                              abs=2.0)

    @pytest.mark.parametrize("input_id", ["T1", "T2", "T3", "T4"])
    def test_tensor_arity_matches_paper(self, input_id):
        spec = TENSOR_SUITE[input_id]
        t = load_tensor(input_id, "small")
        assert t.ndim == spec.paper_rows_or_dims.count("x") + 1


class TestScaleConsistency:
    def test_medium_is_larger_than_small(self):
        small = load_matrix("M2", "small")
        medium = load_matrix("M2", "medium")
        assert medium.nnz > 4 * small.nnz
        # density profile is scale-invariant
        assert (medium.nnz / medium.num_rows) == pytest.approx(
            small.nnz / small.num_rows, rel=0.25)

    def test_speedup_stable_across_scales(self):
        """The headline result must not be an artifact of one scale."""
        from repro.config import experiment_machine
        from repro.eval.workloads import run_workload

        small = run_workload("spmv", "M2",
                             experiment_machine("small"), "small")
        medium = run_workload("spmv", "M2",
                              experiment_machine("medium"), "medium")
        assert medium.speedup == pytest.approx(small.speedup, rel=0.35)
