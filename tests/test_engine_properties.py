"""Property-based and failure-injection tests for the TMU engine."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TMURuntimeError
from repro.tmu import Event, LayerMode, Program, TmuEngine
from repro.types import INDEX_BYTES, VALUE_BYTES


def _merge_program(fiber_indices: list[list[int]], mode: LayerMode,
                   sort: bool = True,
                   values: list[list[float]] | None = None
                   ) -> tuple[Program, list]:
    """A one-layer merge program over explicit coordinate lists; each
    step marshals the coordinate, the mask and the lanes' values
    (``1, 2, ...`` per lane unless ``values`` gives them)."""
    prog = Program("prop_merge", lanes=max(1, len(fiber_indices)))
    layer = prog.add_layer(mode)
    val_streams = []
    for lane, idx in enumerate(fiber_indices):
        arr = np.asarray(sorted(idx) if sort else idx, dtype=np.int64)
        coords = prog.place_array(arr, INDEX_BYTES, f"idx{lane}")
        lane_vals = (np.arange(1.0, arr.size + 1) if values is None
                     else np.asarray(values[lane], dtype=np.float64))
        vals = prog.place_array(lane_vals, VALUE_BYTES, f"val{lane}")
        tu = layer.dns_fbrt(beg=0, end=int(arr.size))
        key = tu.add_mem_stream(coords, name=f"key{lane}")
        val_streams.append(tu.add_mem_stream(vals, name=f"v{lane}"))
        tu.set_merge_key(key)
    layer.add_callback(Event.GITE, "pt", [layer.index_operand(),
                                          layer.mask_operand(),
                                          layer.vec_operand(val_streams)])
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


def _lane_coords(fibers) -> list[np.ndarray]:
    return [np.unique(np.asarray(f, dtype=np.int64)) for f in fibers]


class TestMergeEquivalence:
    """The hardware TG must agree with the set algebra of Section 2.4 on
    arbitrary sorted fibers: a disjunctive merge steps through the
    union of the coordinates, a conjunctive one through their
    intersection, and bit k of a step's mask is set when lane k holds
    the step's coordinate."""

    @given(unique_fibers)
    @settings(max_examples=60, deadline=None)
    def test_disjunctive_matches_reference(self, fibers):
        hw = _run_merge(fibers, LayerMode.DISJ_MRG)
        lanes = _lane_coords(fibers)
        coords = reduce(np.union1d, lanes)
        masks = sum(np.isin(coords, lane).astype(np.int64) << k
                    for k, lane in enumerate(lanes))
        assert hw == list(zip(coords.tolist(), masks.tolist()))

    @given(unique_fibers)
    @settings(max_examples=60, deadline=None)
    def test_conjunctive_matches_reference(self, fibers):
        hw = _run_merge(fibers, LayerMode.CONJ_MRG)
        coords = reduce(np.intersect1d, _lane_coords(fibers))
        all_lanes = (1 << len(fibers)) - 1
        assert hw == [(c, all_lanes) for c in coords.tolist()]

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
