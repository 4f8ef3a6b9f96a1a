"""Traversal Unit FSM tests (Table 1, Section 5.1)."""

import numpy as np
import pytest

from repro.errors import TMUConfigError, TMURuntimeError
from repro.tmu.streams import MemoryArray
from repro.tmu.tu import PrimitiveKind, TraversalUnit, TuState


def make_array(data, name="arr"):
    return MemoryArray(np.asarray(data, dtype=np.float64),
                       base_address=1 << 30, elem_bytes=8, name=name)


def drain(tu):
    """Pull every slot of the current fiber."""
    slots = []
    while True:
        slot = tu.peek()
        if slot is None:
            break
        slots.append(tu.consume())
    return slots


class TestDenseTraversal:
    def test_iterates_beg_to_end(self):
        tu = TraversalUnit(0, 0, PrimitiveKind.DENSE, beg=2, end=6)
        tu.begin(2, 6)
        slots = drain(tu)
        assert [s[tu.ite] for s in slots] == [2, 3, 4, 5]
        assert tu.state is TuState.FEND

    def test_stride(self):
        tu = TraversalUnit(0, 0, PrimitiveKind.DENSE, beg=0, end=7,
                           stride=3)
        tu.begin(0, 7)
        assert [s[tu.ite] for s in drain(tu)] == [0, 3, 6]

    def test_control_tokens_count_ites_plus_end(self):
        tu = TraversalUnit(0, 0, PrimitiveKind.DENSE, beg=0, end=3)
        tu.begin(0, 3)
        drain(tu)
        assert tu.control_tokens == 4  # three 0s + one 1

    def test_rearm_for_next_fiber(self):
        tu = TraversalUnit(0, 0, PrimitiveKind.DENSE, beg=0, end=2)
        tu.begin(0, 2)
        drain(tu)
        tu.begin(0, 2)
        assert len(drain(tu)) == 2
        assert tu.fiber_count == 2

    def test_zero_stride_rejected(self):
        with pytest.raises(TMUConfigError):
            TraversalUnit(0, 0, PrimitiveKind.DENSE, beg=0, end=2,
                          stride=0)

    def test_dense_needs_constant_bounds(self):
        from repro.tmu.streams import IteStream

        with pytest.raises(TMUConfigError):
            TraversalUnit(0, 0, PrimitiveKind.DENSE, beg=IteStream(),
                          end=3)


class TestStreamsInTu:
    def test_mem_stream_per_iteration(self):
        arr = make_array([5.0, 6.0, 7.0])
        tu = TraversalUnit(0, 0, PrimitiveKind.DENSE, beg=0, end=3)
        vals = tu.add_mem_stream(arr)
        tu.begin(0, 3)
        assert [s[vals] for s in drain(tu)] == [5.0, 6.0, 7.0]

    def test_chained_mem_streams(self):
        idx = make_array([2, 0, 1], "idx")
        data = make_array([10.0, 20.0, 30.0], "data")
        tu = TraversalUnit(0, 0, PrimitiveKind.DENSE, beg=0, end=3)
        idx_s = tu.add_mem_stream(idx)
        val_s = tu.add_mem_stream(data, parent=idx_s)
        tu.begin(0, 3)
        assert [s[val_s] for s in drain(tu)] == [30.0, 10.0, 20.0]

    def test_lin_then_mem(self):
        data = make_array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], "data")
        tu = TraversalUnit(0, 0, PrimitiveKind.DENSE, beg=0, end=3)
        lin = tu.add_lin_stream(2, 0)         # i -> 2i
        val = tu.add_mem_stream(data, parent=lin)
        tu.begin(0, 3)
        assert [s[val] for s in drain(tu)] == [0.0, 2.0, 4.0]

    def test_merge_key_must_belong(self):
        tu = TraversalUnit(0, 0, PrimitiveKind.DENSE, beg=0, end=3)
        other = TraversalUnit(0, 1, PrimitiveKind.DENSE, beg=0, end=3)
        with pytest.raises(TMUConfigError):
            tu.set_merge_key(other.ite)


class TestRangePrimitive:
    def test_offset_and_stride(self):
        # RngFbrT(beg, end, offset=1, stride=2) over [10, 15)
        tu = TraversalUnit(1, 0, PrimitiveKind.RANGE,
                           beg=_stream(), end=_stream(), offset=1,
                           stride=2)
        tu.begin(10, 15)
        assert [s[tu.ite] for s in drain(tu)] == [11, 13]

    def test_needs_stream_bounds(self):
        with pytest.raises(TMUConfigError):
            TraversalUnit(1, 0, PrimitiveKind.RANGE, beg=0, end=5)


class TestIndexPrimitive:
    def test_size_window(self):
        tu = TraversalUnit(1, 0, PrimitiveKind.INDEX, beg=_stream(),
                           size=4)
        # the engine arms IdxFbrT with [beg.head(), beg.head()+size)
        tu.begin(20, 20 + tu.size)
        assert [s[tu.ite] for s in drain(tu)] == [20, 21, 22, 23]

    def test_needs_constant_size(self):
        with pytest.raises(TMUConfigError):
            TraversalUnit(1, 0, PrimitiveKind.INDEX, beg=_stream(),
                          size=None)


class TestProtocol:
    def test_peek_before_begin(self):
        tu = TraversalUnit(0, 0, PrimitiveKind.DENSE, beg=0, end=1)
        with pytest.raises(TMURuntimeError):
            tu.peek()

    def test_consume_without_peek(self):
        tu = TraversalUnit(0, 0, PrimitiveKind.DENSE, beg=0, end=1)
        tu.begin(0, 1)
        with pytest.raises(TMURuntimeError):
            tu.consume()


def _stream():
    """A leftward stream stand-in for bound declarations."""
    from repro.tmu.streams import IteStream

    s = IteStream("parent")
    parent_tu = TraversalUnit(0, 0, PrimitiveKind.DENSE, beg=0, end=1)
    s.tu = parent_tu
    return s
