"""outQ, memory arbiter and queue sizing tests (Sections 5.3-5.5)."""

import numpy as np
import pytest

from repro import obs
from repro.errors import TMUConfigError
from repro.formats.convert import coo_to_csf
from repro.formats.csr import CsrMatrix
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
from repro.tmu.arbiter import MemoryArbiter
from repro.tmu.outq import MaskValue, OutQueue, OutQueueRecord
from repro.tmu.sizing import MIN_ENTRIES, size_queues
from repro.tmu.streams import MemoryArray
from repro.tmu.tu import PrimitiveKind, TraversalUnit


class TestOutQueue:
    def test_record_sizing(self):
        rec = OutQueueRecord("ri", ((1.0, 2.0), 3.0, MaskValue(0b11)),
                             0b11, 1)
        # header 4 + vec 16 + scalar 8 + mask 2
        assert rec.nbytes() == 30

    def test_chunk_accounting(self):
        q = OutQueue(chunk_bytes=64)
        rec = OutQueueRecord("ri", ((1.0,) * 7,), 0, 0)  # 4 + 56 = 60 B
        q.push(rec)
        assert q.chunks_completed == 0
        q.push(rec)
        assert q.chunks_completed == 1
        assert q.num_chunks == 2  # one full + one partial

    def test_drain(self):
        q = OutQueue()
        q.push(OutQueueRecord("a", (), 0, 0))
        assert len(q.drain()) == 1
        assert q.num_records == 0

    def test_chunk_must_fit_a_record(self):
        with pytest.raises(TMUConfigError):
            OutQueue(chunk_bytes=4)


class TestArbiter:
    def _tu_with_streams(self, layer, lane):
        tu = TraversalUnit(layer, lane, PrimitiveKind.DENSE, beg=0,
                           end=8)
        arr = MemoryArray(np.arange(8.0), base_address=(lane + 1) << 30,
                          elem_bytes=8, name=f"a{layer}{lane}")
        return tu, tu.add_mem_stream(arr), arr

    def test_consecutive_same_line_coalesces(self):
        arb = MemoryArbiter()
        tu, stream, arr = self._tu_with_streams(0, 0)
        for i in range(8):  # 8 elements x 8 B = one cache line
            arb.record_touch(tu, stream, arr.address_of(i))
        assert arb.total_touches == 8
        assert arb.total_line_requests == 1
        assert arb.total_bytes() == 64

    def test_line_revisits_are_new_requests(self):
        arb = MemoryArbiter()
        tu, stream, arr = self._tu_with_streams(0, 0)
        arb.record_touch(tu, stream, arr.address_of(0))
        arb.record_touch(tu, stream, (1 << 31))
        arb.record_touch(tu, stream, arr.address_of(0))
        assert arb.total_line_requests == 3

    def test_priority_order(self):
        """Leftmost layers first, lanes round-robin, config order."""
        arb = MemoryArbiter()
        tu1, s1, a1 = self._tu_with_streams(1, 0)
        tu0, s0, a0 = self._tu_with_streams(0, 0)
        arb.record_touch(tu1, s1, a1.address_of(0))
        arb.record_touch(tu0, s0, a0.address_of(0))
        order = arb.priority_order()
        assert order[0].layer == 0
        assert order[1].layer == 1

    def test_access_streams_export(self):
        arb = MemoryArbiter()
        tu, stream, arr = self._tu_with_streams(0, 0)
        arb.record_touch(tu, stream, arr.address_of(0))
        exported = arb.access_streams()
        assert len(exported) == 1
        assert exported[0].elem_bytes == 64
        assert exported[0].kind == "read"


class TestSizing:
    def test_rightmost_layers_get_deeper_queues(self):
        sizing = size_queues([2, 3], [100.0, 10000.0], 2048)
        assert sizing.entries(1) > sizing.entries(0)
        assert sizing.per_lane_bytes_used <= 2048

    def test_minimum_entries_guaranteed(self):
        sizing = size_queues([2, 2], [1.0, 1e9], 2048)
        assert sizing.entries(0) >= MIN_ENTRIES

    def test_storage_overflow_rejected(self):
        with pytest.raises(TMUConfigError):
            size_queues([8, 8], [1.0, 1.0], 100)

    def test_zero_volume_falls_back_to_even_split(self):
        sizing = size_queues([2, 2], [0.0, 0.0], 2048)
        assert sizing.entries(0) == sizing.entries(1)

    def test_utilization_bounded(self):
        sizing = size_queues([3, 4], [10.0, 80.0], 2048)
        assert 0.5 < sizing.utilization <= 1.0

    def test_alignment_validation(self):
        with pytest.raises(TMUConfigError):
            size_queues([2], [1.0, 2.0], 2048)


# ------------------------------------------- tracing leaves the run alone


def _builders():
    rng = np.random.default_rng(31)
    matrix = uniform_random_matrix(30, 30, 4, seed=13)
    vector = rng.random(matrix.num_cols)
    sv_idx = np.sort(rng.choice(matrix.num_cols, 7, replace=False))
    csf = coo_to_csf(uniform_random_tensor((9, 8, 7), 100, seed=6))
    return {
        "spmv": lambda: build_spmv_program(matrix, vector, lanes=2),
        "spmspv": lambda: build_spmspv_program(matrix, (sv_idx, rng.random(7))),
        "spmm": lambda: build_spmm_program(
            matrix, rng.random((matrix.num_cols, 5)), lanes=2
        ),
        "spmspm": lambda: build_spmspm_program(matrix, matrix.transpose(), lanes=2),
        "spkadd": lambda: build_spkadd_program(split_rows_cyclic(matrix, 4)),
        "triangle": lambda: build_triangle_program(
            lower_triangle(uniform_random_matrix(40, 40, 5, seed=21))
        ),
        "mttkrp": lambda: build_mttkrp_program(
            uniform_random_tensor((10, 8, 6), 120, seed=5),
            rng.random((8, 4)),
            rng.random((6, 4)),
        ),
        "spttv": lambda: build_spttv_program(csf, rng.random(7)),
        "spttm": lambda: build_spttm_program(csf, rng.random((7, 3))),
        "sptc": lambda: build_sptc_program(
            coo_to_csf(uniform_random_tensor((8, 7, 6), 90, seed=7)),
            coo_to_csf(uniform_random_tensor((6, 7, 9), 90, seed=8)),
        ),
    }


def _assert_same_result(a, b):
    if isinstance(a, CsrMatrix):
        for part in ("ptrs", "idxs", "vals"):
            assert np.array_equal(getattr(a, part), getattr(b, part))
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert np.array_equal(a[key], b[key])
    else:
        assert np.array_equal(a, b)


@pytest.mark.parametrize("kernel", sorted(_builders()))
def test_tracing_leaves_run_unchanged(kernel):
    """Tracing only observes: on every Table 4 kernel program, a traced
    run computes the same RunStats and result as an untraced one, and
    emits one arbiter grant per line request."""
    plain_built = _builders()[kernel]()
    plain = TmuEngine(plain_built.program).run(plain_built.handlers)

    traced_built = _builders()[kernel]()
    with obs.trace_capture() as tracer:
        traced = TmuEngine(traced_built.program).run(traced_built.handlers)

    assert traced == plain
    _assert_same_result(traced_built.result(), plain_built.result())
    assert tracer.dropped == 0
    grants = [e for e in tracer.events if e[4] == "grant"]
    assert len(grants) == plain.memory_lines
