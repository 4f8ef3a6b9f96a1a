"""Tests for the expression-to-TMU compiler (the paper's future work)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import compile_expression, parse_expression
from repro.compiler.parser import ExpressionError
from repro.errors import WorkloadError
from repro.generators import uniform_random_matrix
from repro.tmu import TmuEngine
from tests.oracle import einsum, small_ints, sparse_vector, with_small_ints


def run(built):
    TmuEngine(built.program).run(built.handlers)
    return built.result()


@pytest.fixture
def a():
    return with_small_ints(uniform_random_matrix(24, 24, 4, seed=51))


@pytest.fixture
def b_mat():
    return with_small_ints(uniform_random_matrix(24, 24, 4, seed=52), seed=1)


class TestParser:
    def test_spmv_expression(self):
        expr = parse_expression("Z(i) = A(i,j) * B(j)")
        assert expr.output.indices == ("i",)
        assert expr.op == "*"
        assert expr.index_classes() == {"i": "free", "j": "contracted"}

    def test_elementwise_classification(self):
        expr = parse_expression("Z(i,j) = A(i,j) * B(i,j)")
        assert expr.index_classes() == {"i": "elementwise",
                                        "j": "elementwise"}

    def test_copy_expression(self):
        expr = parse_expression("Z(i,j) = A(i,j)")
        assert expr.op is None and expr.rhs is None

    def test_whitespace_insensitive(self):
        expr = parse_expression("  Z( i , j )=A(i,j)+B(i,j) ")
        assert expr.op == "+"

    def test_rejects_repeated_index_in_ref(self):
        with pytest.raises(ExpressionError):
            parse_expression("Z(i) = A(i,i) * B(i)")

    def test_rejects_unknown_operator(self):
        with pytest.raises(ExpressionError):
            parse_expression("Z(i) = A(i,j) - B(j)")

    def test_rejects_dangling_output_index(self):
        with pytest.raises(ExpressionError):
            parse_expression("Z(i,k) = A(i,j) * B(j)")

    def test_rejects_three_operands(self):
        with pytest.raises(ExpressionError):
            parse_expression("Z(i) = A(i,j) * B(j) * C(j)")

    def test_addition_requires_aligned_indices(self):
        with pytest.raises(ExpressionError):
            parse_expression("Z(i,j) = A(i,j) + B(j,i)")


class TestCompilation:
    def test_spmv(self, a, rng):
        b = small_ints(rng, 24)
        out = run(compile_expression("Z(i) = A(i,j) * B(j)",
                                     {"A": a, "B": b}))
        assert np.array_equal(out, einsum("ij,j->i", a, b))

    def test_spmspv(self, a, rng):
        sv, dense = sparse_vector(rng, 24, 6)
        out = run(compile_expression("Z(i) = A(i,j) * B(j)",
                                     {"A": a, "B": sv}))
        assert np.array_equal(out, einsum("ij,j->i", a, dense))

    @pytest.mark.parametrize("idxs,vals", [
        ([1, 4, 9], [1.0, 2.0]),
        ([4, 1, 9], [1.0, 2.0, 3.0]),
        ([1, 4, 4], [1.0, 2.0, 3.0]),
        ([1, 4, 24], [1.0, 2.0, 3.0]),   # A has 24 columns
        ([-1, 4, 9], [1.0, 2.0, 3.0]),
    ], ids=["lengths-differ", "unsorted", "repeated-index",
            "past-last-column", "negative-index"])
    def test_spmspv_malformed_vector(self, a, idxs, vals):
        with pytest.raises(WorkloadError):
            compile_expression("Z(i) = A(i,j) * B(j)",
                               {"A": a, "B": (np.array(idxs), np.array(vals))})

    @pytest.mark.parametrize("length", [23, 25])   # A has 24 columns
    def test_vector_of_wrong_length(self, a, length):
        with pytest.raises(WorkloadError, match="contracted extent"):
            compile_expression("Z(i) = A(i,j) * B(j)",
                               {"A": a, "B": np.ones(length)})

    def test_spmm(self, a, rng):
        b = small_ints(rng, (24, 5))
        out = run(compile_expression("Z(i,k) = A(i,j) * B(j,k)",
                                     {"A": a, "B": b}))
        assert np.array_equal(out, einsum("ij,jk->ik", a, b))

    def test_spmspm(self, a, b_mat):
        out = run(compile_expression("Z(i,k) = A(i,j) * B(j,k)",
                                     {"A": a, "B": b_mat}))
        assert np.array_equal(out.to_dense(), einsum("ij,jk->ik", a, b_mat))

    def test_operand_order_normalized(self, a, rng):
        """B(j) * A(i,j) compiles the same as A(i,j) * B(j)."""
        b = small_ints(rng, 24)
        out = run(compile_expression("Z(i) = B(j) * A(i,j)",
                                     {"A": a, "B": b}))
        assert np.array_equal(out, einsum("j,ij->i", b, a))

    def test_elementwise_add(self, a, b_mat):
        out = run(compile_expression("Z(i,j) = A(i,j) + B(i,j)",
                                     {"A": a, "B": b_mat}))
        assert np.array_equal(out.to_dense(),
                              a.to_dense() + b_mat.to_dense())

    def test_elementwise_multiply(self, a, b_mat):
        out = run(compile_expression("Z(i,j) = A(i,j) * B(i,j)",
                                     {"A": a, "B": b_mat}))
        assert np.array_equal(out.to_dense(),
                              einsum("ij,ij->ij", a, b_mat))

    def test_copy(self, a):
        """A pure copy parses but has no lowering."""
        with pytest.raises(ExpressionError, match="unsupported index"):
            compile_expression("Z(i,j) = A(i,j)", {"A": a})

    def test_missing_operand(self, a):
        with pytest.raises(ExpressionError):
            compile_expression("Z(i) = A(i,j) * B(j)", {"A": a})

    def test_shape_mismatch(self, a):
        other = uniform_random_matrix(10, 10, 2, seed=3)
        with pytest.raises(ExpressionError):
            compile_expression("Z(i,j) = A(i,j) + B(i,j)",
                               {"A": a, "B": other})

    def test_dense_operand_where_csr_required(self, rng):
        with pytest.raises(ExpressionError):
            compile_expression("Z(i,j) = A(i,j) + B(i,j)",
                               {"A": rng.random((4, 4)),
                                "B": rng.random((4, 4))})

    @given(st.integers(0, 25))
    @settings(max_examples=10, deadline=None)
    def test_random_elementwise_adds(self, seed):
        x = with_small_ints(uniform_random_matrix(12, 12, 3, seed=seed))
        y = with_small_ints(uniform_random_matrix(12, 12, 3, seed=seed + 100),
                            seed=1)
        out = run(compile_expression("Z(i,j) = A(i,j) + B(i,j)",
                                     {"A": x, "B": y}))
        assert np.array_equal(out.to_dense(), x.to_dense() + y.to_dense())
