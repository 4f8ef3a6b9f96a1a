"""Property-based and failure-injection tests for the TMU engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TMURuntimeError
from repro.fibers.fiber import Fiber
from repro.fibers.merge import conjunctive_merge, disjunctive_merge
from repro.tmu import Event, LayerMode, Program, TmuEngine
from repro.types import INDEX_BYTES, VALUE_BYTES


def _merge_program(fiber_indices: list[list[int]], mode: LayerMode,
                   sort: bool = True) -> tuple[Program, list]:
    """A one-layer merge program over explicit coordinate lists."""
    prog = Program("prop_merge", lanes=max(1, len(fiber_indices)))
    layer = prog.add_layer(mode)
    for lane, idx in enumerate(fiber_indices):
        arr = np.asarray(sorted(idx) if sort else idx, dtype=np.int64)
        coords = prog.place_array(arr, INDEX_BYTES, f"idx{lane}")
        vals = prog.place_array(np.arange(1.0, arr.size + 1),
                                VALUE_BYTES, f"val{lane}")
        tu = layer.dns_fbrt(beg=0, end=int(arr.size))
        key = tu.add_mem_stream(coords, name=f"key{lane}")
        tu.add_mem_stream(vals, name=f"v{lane}")
        tu.set_merge_key(key)
    layer.add_callback(Event.GITE, "pt", [layer.index_operand(),
                                          layer.mask_operand()])
    points: list[tuple[int, int]] = []
    return prog, points


def _run_merge(fiber_indices, mode):
    prog, points = _merge_program(fiber_indices, mode)
    TmuEngine(prog).run({"pt": lambda r: points.append(
        (int(r.operands[0]), int(r.operands[1])))})
    return points


unique_fibers = st.lists(
    st.lists(st.integers(0, 25), min_size=1, max_size=12, unique=True),
    min_size=1, max_size=6,
)


class TestMergeEquivalence:
    """The hardware TG must agree with the software merge reference on
    arbitrary sorted fibers."""

    @given(unique_fibers)
    @settings(max_examples=60, deadline=None)
    def test_disjunctive_matches_reference(self, fibers):
        hw = _run_merge(fibers, LayerMode.DISJ_MRG)
        ref_fibers = [Fiber(np.sort(np.asarray(f, dtype=np.int64)),
                            np.ones(len(f)), validate=False)
                      for f in fibers]
        ref = [(p.index, p.mask) for p in disjunctive_merge(ref_fibers)]
        assert hw == ref

    @given(unique_fibers)
    @settings(max_examples=60, deadline=None)
    def test_conjunctive_matches_reference(self, fibers):
        hw = _run_merge(fibers, LayerMode.CONJ_MRG)
        ref_fibers = [Fiber(np.sort(np.asarray(f, dtype=np.int64)),
                            np.ones(len(f)), validate=False)
                      for f in fibers]
        ref = [(p.index, p.mask) for p in conjunctive_merge(ref_fibers)]
        assert hw == ref

    @given(unique_fibers)
    @settings(max_examples=40, deadline=None)
    def test_disjunctive_output_sorted_and_unique(self, fibers):
        hw = _run_merge(fibers, LayerMode.DISJ_MRG)
        coords = [c for c, _ in hw]
        assert coords == sorted(set(coords))


class TestFailureInjection:
    def test_unsorted_fiber_rejected_by_merger(self):
        """Sorted coordinates are a format invariant (Section 2.4); the
        merger detects the violation instead of emitting garbage."""
        prog, _ = _merge_program([[5, 2, 9], [1, 3]],
                                 LayerMode.DISJ_MRG, sort=False)
        with pytest.raises(TMURuntimeError):
            TmuEngine(prog).run()

    def test_out_of_bounds_stream_load(self):
        """A mem stream chasing a corrupted index faults (the MMU/page
        fault path of Section 5.6) instead of reading junk."""
        from repro.errors import TMUConfigError

        prog = Program("oob", lanes=1)
        bad_idx = prog.place_array(np.array([0, 99]), INDEX_BYTES, "idx")
        data = prog.place_array(np.zeros(4), VALUE_BYTES, "data")
        l0 = prog.add_layer(LayerMode.SINGLE)
        tu = l0.dns_fbrt(beg=0, end=2)
        chase = tu.add_mem_stream(bad_idx, name="chase")
        tu.add_mem_stream(data, parent=chase, name="victim")
        with pytest.raises(TMUConfigError):
            TmuEngine(prog).run()

    def test_handler_exception_propagates(self):
        """Core-side faults surface to the caller, not get swallowed."""
        prog, _ = _merge_program([[1, 2]], LayerMode.DISJ_MRG)

        def boom(record):
            raise RuntimeError("core fault")

        with pytest.raises(RuntimeError, match="core fault"):
            TmuEngine(prog).run({"pt": boom})

    @given(unique_fibers)
    @settings(max_examples=20, deadline=None)
    def test_stats_consistent_under_any_input(self, fibers):
        prog, points = _merge_program(fibers, LayerMode.DISJ_MRG)
        stats = TmuEngine(prog).run(
            {"pt": lambda r: points.append(1)})
        assert stats.outq_records == len(points)
        assert stats.layer_iterations[0] == sum(len(f) for f in fibers)
        assert stats.layer_merge_steps[0] == len(points)
