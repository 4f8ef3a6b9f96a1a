"""Table 4 completeness: every kernel's TMU program computes exactly
the einsum it implements, on the functional engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import TMUConfig
from repro.errors import WorkloadError
from repro.formats.convert import coo_to_csf
from repro.generators import uniform_random_matrix, uniform_random_tensor
from repro.kernels import split_rows_cyclic
from repro.kernels.triangle import lower_triangle
from repro.programs import (
    build_mttkrp_program,
    build_spkadd_program,
    build_spmm_program,
    build_spmspm_program,
    build_spmspv_program,
    build_spmv_program,
    build_sptc_program,
    build_spttm_program,
    build_spttv_program,
    build_triangle_program,
)
from repro.tmu import TmuEngine
from tests.oracle import (
    einsum,
    map_matches,
    pattern,
    pattern_counts,
    small_ints,
    sparse_vector,
    with_small_ints,
)


def run(built):
    engine = TmuEngine(built.program)
    stats = engine.run(built.handlers)
    return built.result(), stats, engine


@pytest.fixture
def matrix():
    return with_small_ints(uniform_random_matrix(30, 30, 4, seed=13))


@pytest.fixture
def vector(rng, matrix):
    return small_ints(rng, matrix.num_cols)


class TestSpmvVariants:
    @pytest.mark.parametrize("lanes", [1, 2, 4, 8])
    def test_lanes_invariant(self, matrix, vector, lanes):
        """P0 (lanes=1) and P1 (multi-lane) produce identical results."""
        built = build_spmv_program(matrix, vector, lanes=lanes)
        out, stats, _ = run(built)
        assert np.array_equal(out, einsum("ij,j->i", matrix, vector))
        # layer 1 touches every non-zero exactly once, any lane count
        assert stats.layer_iterations[1] == matrix.nnz

    def test_outq_and_callbacks(self, matrix, vector):
        built = build_spmv_program(matrix, vector, lanes=2)
        _, stats, _ = run(built)
        assert stats.callback_counts["re"] == matrix.num_rows
        expected_ri = int(np.sum(-(-matrix.row_nnz() // 2)))
        assert stats.callback_counts["ri"] == expected_ri
        assert stats.outq_records == expected_ri + matrix.num_rows
        assert stats.outq_bytes > 0

    def test_memory_requests_cover_operands(self, matrix, vector):
        built = build_spmv_program(matrix, vector, lanes=2)
        _, stats, engine = run(built)
        # every idx/val element touched once; gathers at least once
        assert stats.memory_touches >= 3 * matrix.nnz
        assert stats.memory_lines > 0

    @given(st.integers(0, 30))
    @settings(max_examples=10, deadline=None)
    def test_random_matrices(self, seed):
        a = with_small_ints(uniform_random_matrix(15, 15, 3, seed=seed))
        b = small_ints(np.random.default_rng(seed), 15)
        built = build_spmv_program(a, b, lanes=2)
        out, _, _ = run(built)
        assert np.array_equal(out, einsum("ij,j->i", a, b))


class TestOtherKernels:
    def test_spmspv(self, matrix, rng):
        sv, dense = sparse_vector(rng, matrix.num_cols, 7)
        built = build_spmspv_program(matrix, sv)
        out, _, _ = run(built)
        assert np.array_equal(out, einsum("ij,j->i", matrix, dense))

    def test_spmm(self, matrix, rng):
        b = small_ints(rng, (matrix.num_cols, 5))
        built = build_spmm_program(matrix, b, lanes=2)
        out, _, _ = run(built)
        assert np.array_equal(out, einsum("ik,kj->ij", matrix, b))

    def test_spmspm(self, matrix):
        at = matrix.transpose()
        built = build_spmspm_program(matrix, at, lanes=2)
        out, _, _ = run(built)
        assert np.array_equal(out.to_dense(),
                              einsum("ik,kj->ij", matrix, at))
        assert np.array_equal(out.row_nnz(),
                              pattern_counts("ik,kj->ij", matrix, at))

    def test_spkadd(self, matrix):
        parts = split_rows_cyclic(matrix, 4)
        built = build_spkadd_program(parts)
        out, stats, _ = run(built)
        assert np.array_equal(out.to_dense(),
                              sum(p.to_dense() for p in parts))
        # both layers merge: gites recorded
        assert stats.layer_merge_steps[0] > 0
        assert stats.layer_merge_steps[1] > 0

    def test_triangle(self):
        g = uniform_random_matrix(40, 40, 5, seed=21)
        lt = pattern(lower_triangle(g))
        built = build_triangle_program(lt)
        out, _, _ = run(built)
        assert out == einsum("ij,ik,jk->", lt, lt, lt) > 0

    def test_mttkrp(self, rng):
        t = with_small_ints(uniform_random_tensor((10, 8, 6), 120, seed=5))
        b = small_ints(rng, (8, 4))
        c = small_ints(rng, (6, 4))
        built = build_mttkrp_program(t, b, c)
        out, _, _ = run(built)
        assert np.array_equal(out, einsum("ikl,kj,lj->ij", t, b, c))

    def test_spttv(self, rng):
        csf = with_small_ints(
            coo_to_csf(uniform_random_tensor((9, 8, 7), 100, seed=6)))
        v = small_ints(rng, 7)
        built = build_spttv_program(csf, v)
        out, _, _ = run(built)
        assert map_matches(out, einsum("ijk,k->ij", csf, v))

    def test_spttm(self, rng):
        csf = with_small_ints(
            coo_to_csf(uniform_random_tensor((9, 8, 7), 100, seed=6)))
        m = small_ints(rng, (7, 3))
        built = build_spttm_program(csf, m)
        out, _, _ = run(built)
        assert map_matches(out, einsum("ijk,kl->ijl", csf, m))

    def test_sptc(self):
        ta = coo_to_csf(uniform_random_tensor((8, 7, 6), 90, seed=7))
        tb = coo_to_csf(uniform_random_tensor((6, 7, 9), 90, seed=8))
        built = build_sptc_program(ta, tb)
        out, _, _ = run(built)
        counts = pattern_counts("ikl,lkj->ij", ta, tb)
        assert np.array_equal(out, counts[ta.idxs[0]])

    def test_sptc_arity_check(self, small_csf):
        bad = coo_to_csf(uniform_random_tensor((4, 4), 10, seed=0))
        with pytest.raises(WorkloadError):
            build_sptc_program(small_csf, bad)


class TestSpmspvInput:
    """The merger assumes sorted fibers, so the SpMSpV builder refuses a
    sparse vector whose ``(idxs, vals)`` break that or A's columns."""

    @pytest.mark.parametrize("idxs,vals", [
        ([1, 4, 9], [1.0, 2.0]),
        ([4, 1, 9], [1.0, 2.0, 3.0]),
        ([1, 4, 4], [1.0, 2.0, 3.0]),
        ([1, 4, 30], [1.0, 2.0, 3.0]),   # A has 30 columns
        ([-1, 4, 9], [1.0, 2.0, 3.0]),
    ], ids=["lengths-differ", "unsorted", "repeated-index",
            "past-last-column", "negative-index"])
    def test_malformed_vector_rejected(self, matrix, idxs, vals):
        with pytest.raises(WorkloadError):
            build_spmspv_program(matrix, (np.array(idxs), np.array(vals)))

    def test_edge_columns_accepted(self, matrix):
        built = build_spmspv_program(matrix, ([0, 29], [2.0, 3.0]))
        dense = np.zeros(30)
        dense[[0, 29]] = [2.0, 3.0]
        out, _, _ = run(built)
        assert np.array_equal(out, einsum("ij,j->i", matrix, dense))


class TestContractedExtent:
    """Every builder refuses a B whose leading extent is not A's
    contracted one: the matrix's 30 columns, the tensor's k = 7."""

    @pytest.mark.parametrize("delta", [-1, 1], ids=["too-short", "too-long"])
    @pytest.mark.parametrize("kernel", ["spmv", "spmm", "spmspm", "spttv",
                                        "spttm"])
    def test_mismatched_b_rejected(self, matrix, kernel, delta):
        n = matrix.num_cols + delta
        csf = coo_to_csf(uniform_random_tensor((9, 8, 7), 100, seed=6))
        k = csf.shape[2] + delta
        build = {
            "spmv": lambda: build_spmv_program(matrix, np.ones(n)),
            "spmm": lambda: build_spmm_program(matrix, np.ones((n, 3))),
            "spmspm": lambda: build_spmspm_program(
                matrix, uniform_random_matrix(n, 7, 2, seed=1)),
            "spttv": lambda: build_spttv_program(csf, np.ones(k)),
            "spttm": lambda: build_spttm_program(csf, np.ones((k, 3))),
        }[kernel]
        with pytest.raises(WorkloadError, match="contracted extent"):
            build()


class TestEngineConstraints:
    def test_program_wider_than_engine_rejected(self, matrix, vector):
        from repro.errors import TMUConfigError

        built = build_spmv_program(matrix, vector, lanes=4)
        with pytest.raises(TMUConfigError):
            TmuEngine(built.program, TMUConfig(lanes=2))

    def test_queue_sizing_attached(self, matrix, vector):
        built = build_spmv_program(matrix, vector, lanes=2)
        _, stats, _ = run(built)
        assert stats.queue_sizing is not None
        assert stats.queue_sizing.utilization > 0.5

    def test_results_independent_of_chunk_size(self, matrix, vector):
        built1 = build_spmv_program(matrix, vector, lanes=2)
        eng1 = TmuEngine(built1.program,
                         TMUConfig(outq_chunk_bytes=256))
        eng1.run(built1.handlers)
        out1 = built1.result()
        built2 = build_spmv_program(matrix, vector, lanes=2)
        eng2 = TmuEngine(built2.program,
                         TMUConfig(outq_chunk_bytes=16384))
        eng2.run(built2.handlers)
        assert np.allclose(out1, built2.result())
