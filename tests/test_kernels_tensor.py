"""Tensor-kernel correctness tests against the einsum oracle."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.kernels import cp_als, mttkrp
from tests.oracle import einsum, small_ints, with_small_ints


class TestMttkrp:
    def test_matches_einsum_mode0(self, small_tensor, rng):
        t = with_small_ints(small_tensor)
        b = small_ints(rng, (16, 6))
        c = small_ints(rng, (12, 6))
        ref = einsum("ikl,kj,lj->ij", t, b, c)
        assert np.array_equal(mttkrp(t, b, c), ref)

    @pytest.mark.parametrize("mode,spec", [
        (0, "ikl,kj,lj->ij"), (1, "kil,kj,lj->ij"), (2, "kli,kj,lj->ij"),
    ])
    def test_all_modes(self, small_tensor, rng, mode, spec):
        t = with_small_ints(small_tensor)
        axes = [m for m in range(3) if m != mode]
        b = small_ints(rng, (t.shape[axes[0]], 5))
        c = small_ints(rng, (t.shape[axes[1]], 5))
        assert np.array_equal(mttkrp(t, b, c, mode=mode),
                              einsum(spec, t, b, c))

    def test_rank_mismatch(self, small_tensor, rng):
        with pytest.raises(WorkloadError):
            mttkrp(small_tensor, rng.random((16, 6)),
                   rng.random((12, 7)))

    def test_extent_mismatch(self, small_tensor, rng):
        with pytest.raises(WorkloadError):
            mttkrp(small_tensor, rng.random((99, 6)),
                   rng.random((12, 6)))


class TestCpAls:
    def test_fit_improves_and_reconstructs(self):
        # A genuinely low-rank tensor: CP-ALS must fit it ~exactly.
        rng = np.random.default_rng(0)
        a = rng.random((8, 3))
        b = rng.random((7, 3))
        c = rng.random((6, 3))
        dense = np.einsum("ir,jr,kr->ijk", a, b, c)
        from repro.formats.coo import CooTensor

        t = CooTensor.from_dense(dense)
        result = cp_als(t, rank=3, iterations=60, seed=1)
        assert result.fit_history[-1] > 0.99
        assert result.fit_history[-1] >= result.fit_history[0] - 1e-9
        assert np.allclose(result.reconstruct(), dense, atol=0.05)

    def test_bad_rank(self, small_tensor):
        with pytest.raises(WorkloadError):
            cp_als(small_tensor, 0)

    def test_fit_history_length(self, small_tensor):
        result = cp_als(small_tensor, 4, iterations=3)
        assert len(result.fit_history) == 3

    def test_tolerance_stops_early(self):
        rng = np.random.default_rng(0)
        dense = np.einsum("ir,jr->ij", rng.random((5, 1)),
                          rng.random((4, 1)))[:, :, None] * np.ones(3)
        from repro.formats.coo import CooTensor

        t = CooTensor.from_dense(dense)
        result = cp_als(t, rank=2, iterations=50, tolerance=1e-6)
        assert len(result.fit_history) < 50
