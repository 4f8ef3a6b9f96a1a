"""Sanity checks on every baseline characterization: the traces the
timing model consumes must be internally consistent for any input."""

import numpy as np
import pytest

from repro.config import default_machine
from repro.formats.convert import coo_to_csf
from repro.generators import uniform_random_matrix, uniform_random_tensor
from repro.kernels import split_rows_cyclic
from repro.kernels.cpals import characterize_cpals
from repro.kernels.mttkrp import characterize_mttkrp
from repro.kernels.pagerank import characterize_pagerank
from repro.kernels.spadd import characterize_spadd
from repro.kernels.spkadd import characterize_spkadd
from repro.kernels.spmspm import characterize_spmspm
from repro.kernels.spmv import characterize_spmv
from repro.kernels.sptc import characterize_sptc
from repro.kernels.triangle import characterize_triangle, lower_triangle
from repro.sim.trace import Gather, Ranges


@pytest.fixture(scope="module")
def machine():
    return default_machine()


@pytest.fixture(scope="module")
def matrix():
    return uniform_random_matrix(80, 80, 5, seed=91)


@pytest.fixture(scope="module")
def tensor():
    return uniform_random_tensor((20, 16, 12), 400, seed=92)


def all_traces(machine, matrix, tensor):
    csf = coo_to_csf(tensor)
    csf_b = coo_to_csf(tensor, mode_order=(2, 1, 0))
    return {
        "spmv": characterize_spmv(matrix, machine),
        "spmspm": characterize_spmspm(matrix, matrix.transpose(),
                                      machine),
        "spadd": characterize_spadd(matrix, matrix.transpose(), machine),
        "spkadd": characterize_spkadd(split_rows_cyclic(matrix, 8),
                                      machine),
        "pagerank": characterize_pagerank(matrix, machine),
        "triangle": characterize_triangle(lower_triangle(matrix),
                                          machine),
        "mttkrp": characterize_mttkrp(tensor, 16, machine),
        "cpals": characterize_cpals(tensor, 16, machine),
        "sptc": characterize_sptc(csf, csf_b, machine),
    }


@pytest.fixture(scope="module")
def traces(machine, matrix, tensor):
    return all_traces(machine, matrix, tensor)


class TestTraceInvariants:
    def test_instruction_mix_positive(self, traces):
        for name, t in traces.items():
            assert t.total_instructions() > 0, name
            assert t.loads > 0, name
            assert t.branches >= 0, name

    def test_datadep_within_branches(self, traces):
        for name, t in traces.items():
            assert 0 <= t.datadep_branches <= t.branches, name

    def test_dependence_fraction_bounded(self, traces):
        for name, t in traces.items():
            assert 0.0 <= t.dependent_load_fraction <= 1.0, name

    def test_streams_nonempty_and_typed(self, traces):
        for name, t in traces.items():
            assert t.streams, name
            assert any(s.kind == "read" for s in t.streams), name
            for s in t.streams:
                # an index is a Ranges, a Gather of an integer array
                # through a Ranges, or an integer position array, and
                # its addresses materialize as int64 on demand
                index = s.index
                if isinstance(index, Gather):
                    assert isinstance(index.ranges, Ranges), (name, s.label)
                    index = index.values
                assert (isinstance(index, Ranges)
                        or index.dtype.kind in "iu"), (name, s.label)
                addresses = s.addresses
                assert addresses.dtype == np.int64, (name, s.label)
                assert s.count == addresses.size, (name, s.label)

    def test_flops_nonnegative(self, traces):
        for name, t in traces.items():
            assert t.flops >= 0.0, name
        # the integer/symbolic kernels carry no flops (Figure 12 note)
        assert traces["triangle"].flops == 0.0
        assert traces["sptc"].flops == 0.0

    def test_spmv_flop_count_exact(self, traces, matrix):
        assert traces["spmv"].flops == 2.0 * matrix.nnz

    def test_read_bytes_cover_operands(self, traces, matrix):
        # SpMV must at least stream the matrix once.
        read = sum(s.bytes for s in traces["spmv"].streams
                   if s.kind == "read")
        assert read >= matrix.nbytes()

    def test_parallel_units_positive(self, traces):
        for name, t in traces.items():
            assert t.parallel_units >= 1, name


class TestScalingBehaviour:
    def test_traces_scale_with_input(self, machine):
        small = characterize_spmv(
            uniform_random_matrix(40, 40, 4, seed=1), machine)
        big = characterize_spmv(
            uniform_random_matrix(160, 160, 4, seed=1), machine)
        assert big.total_instructions() > 2 * small.total_instructions()
        assert big.flops > 2 * small.flops

    def test_vector_width_reduces_vector_ops(self, matrix):
        wide = characterize_spmv(matrix, default_machine())
        narrow = characterize_spmv(
            matrix, default_machine().with_core(vector_bits=128))
        assert narrow.vector_ops > wide.vector_ops
