"""Cross-validation: the functional engine's measured statistics must
agree with the fast analytic timing models on the same inputs.

This is the test that licenses running experiments on the analytic
path: if iteration counts, merge steps, and outQ records match the
exact dataflow execution, the timing models describe the hardware the
functional model implements.
"""

import numpy as np
import pytest

from repro.config import default_machine
from repro.generators import uniform_random_matrix
from repro.kernels import split_rows_cyclic
from repro.kernels.triangle import lower_triangle
from repro.programs import (
    build_spkadd_program,
    build_spmv_program,
    build_triangle_program,
    spkadd_timing_model,
    spmv_timing_model,
    triangle_timing_model,
)
from repro.tmu import TmuEngine


@pytest.fixture(scope="module")
def machine():
    # 512-bit SVE -> 8-lane analytic models; functional programs are
    # built with the same lane counts below.
    return default_machine()


class TestSpmv:
    def test_counts_agree(self, machine):
        a = uniform_random_matrix(40, 40, 5, seed=17)
        b = np.random.default_rng(0).random(40)
        lanes = machine.core.vector_bits // 64
        built = build_spmv_program(a, b, lanes=lanes)
        stats = TmuEngine(built.program).run(built.handlers)
        model = spmv_timing_model(a, machine)

        # layer elements: rows then nnz
        assert stats.layer_iterations == model.layer_elements
        # outQ records: lockstep steps + row ends
        assert stats.outq_records == model.outq_records
        # traversal bytes agree at line granularity within dedup noise
        model_bytes = sum(s.bytes for s in model.tmu_streams)
        assert stats.memory_touches * 4 <= model_bytes * 2.5
        assert stats.outq_bytes == pytest.approx(model.outq_bytes,
                                                 rel=0.05)

    def test_flops_agree(self, machine):
        a = uniform_random_matrix(40, 40, 5, seed=18)
        model = spmv_timing_model(a, machine)
        assert model.core_trace.flops == 2.0 * a.nnz


class TestSpkadd:
    def test_merge_steps_agree(self, machine):
        a = uniform_random_matrix(48, 48, 5, seed=19)
        parts = split_rows_cyclic(a, 8)
        built = build_spkadd_program(parts)
        stats = TmuEngine(built.program).run(built.handlers)
        model = spkadd_timing_model(parts, machine)

        functional_merges = sum(stats.layer_merge_steps)
        assert functional_merges == model.merge_steps
        assert stats.outq_records == model.outq_records

    def test_layer_elements_agree(self, machine):
        a = uniform_random_matrix(48, 48, 5, seed=20)
        parts = split_rows_cyclic(a, 8)
        built = build_spkadd_program(parts)
        stats = TmuEngine(built.program).run(built.handlers)
        model = spkadd_timing_model(parts, machine)
        assert stats.layer_iterations == model.layer_elements


class TestTriangle:
    def test_hit_records_agree(self, machine):
        g = uniform_random_matrix(40, 40, 6, seed=21)
        lt = lower_triangle(g)
        built = build_triangle_program(lt)
        stats = TmuEngine(built.program).run(built.handlers)
        model = triangle_timing_model(lt, machine)
        # model records = hits + per-edge bookkeeping
        hits = stats.callback_counts.get("hit", 0)
        assert model.outq_records == hits + lt.nnz

    def test_merge_work_bounds(self, machine):
        """The analytic merge-element estimate upper-bounds the
        functional engine's actual merge consumption (the estimate
        assumes full rescans; conjunctions stop early)."""
        g = uniform_random_matrix(40, 40, 6, seed=22)
        lt = lower_triangle(g)
        built = build_triangle_program(lt)
        stats = TmuEngine(built.program).run(built.handlers)
        model = triangle_timing_model(lt, machine)
        functional = stats.layer_iterations[2]
        estimate = model.layer_elements[2]
        assert functional <= estimate
        assert functional >= estimate * 0.2
