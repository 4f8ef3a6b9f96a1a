"""Traversal Group FSM tests (Table 3, Section 5.2)."""

import numpy as np
import pytest

from repro.errors import TMUConfigError, TMURuntimeError
from repro.tmu.streams import MemoryArray
from repro.tmu.tg import LayerMode, TraversalGroup
from repro.tmu.tu import PrimitiveKind, TraversalUnit


def fiber_tu(lane, indices, layer=0):
    """A TU whose merge key follows the given coordinate sequence."""
    indices = np.asarray(indices, dtype=np.float64)
    tu = TraversalUnit(layer, lane, PrimitiveKind.DENSE, beg=0,
                       end=len(indices))
    arr = MemoryArray(indices, base_address=(lane + 1) << 30,
                      elem_bytes=4, name=f"idx{lane}")
    key = tu.add_mem_stream(arr, name=f"key{lane}")
    tu.set_merge_key(key)
    tu.begin(0, len(indices))
    return tu


class TestModes:
    def test_single_iterates_one_lane(self):
        tu = fiber_tu(0, [4, 7, 9])
        tg = TraversalGroup(0, LayerMode.SINGLE, [tu])
        steps = list(tg.iterate(0b1))
        assert len(steps) == 3
        assert all(s.mask == 1 for s in steps)
        assert tg.gend_count == 1

    def test_single_rejects_multiple_lanes(self):
        with pytest.raises(TMUConfigError):
            TraversalGroup(0, LayerMode.SINGLE,
                           [fiber_tu(0, [1]), fiber_tu(1, [1])])

    def test_lockstep_pads_with_mask(self):
        tus = [fiber_tu(0, [1, 2, 3]), fiber_tu(1, [5, 6])]
        tg = TraversalGroup(0, LayerMode.LOCKSTEP, tus)
        steps = list(tg.iterate(0b11))
        assert [s.mask for s in steps] == [0b11, 0b11, 0b01]

    def test_lockstep_respects_active_mask(self):
        tus = [fiber_tu(0, [1, 2]), fiber_tu(1, [5])]
        tg = TraversalGroup(0, LayerMode.LOCKSTEP, tus)
        steps = list(tg.iterate(0b01))  # only lane 0 active
        assert [s.mask for s in steps] == [0b01, 0b01]

    def test_empty_active_mask_rejected(self):
        tg = TraversalGroup(0, LayerMode.LOCKSTEP, [fiber_tu(0, [1])])
        with pytest.raises(TMURuntimeError):
            list(tg.iterate(0b0))

    def test_keep_selects_configured_lane(self):
        tus = [fiber_tu(0, [1, 2]), fiber_tu(1, [7, 8, 9])]
        tg = TraversalGroup(0, LayerMode.KEEP, tus, keep_lane=1)
        steps = list(tg.iterate(0b11))
        assert len(steps) == 3
        assert all(s.mask == 0b10 for s in steps)

    def test_keep_defaults_to_lowest_active(self):
        tus = [fiber_tu(0, [1, 2]), fiber_tu(1, [7])]
        tg = TraversalGroup(0, LayerMode.KEEP, tus)
        steps = list(tg.iterate(0b10))
        assert all(s.mask == 0b10 for s in steps)

    def test_keep_lane_bounds_checked(self):
        with pytest.raises(TMUConfigError):
            TraversalGroup(0, LayerMode.KEEP, [fiber_tu(0, [1])],
                           keep_lane=3)


class TestDisjunctiveMerge:
    def test_figure2_masks(self):
        # Fibers A = {0,2,3}, B = {0,1,3}: msk = 11, 01(B), 10(A), 11
        tus = [fiber_tu(0, [0, 2, 3]), fiber_tu(1, [0, 1, 3])]
        tg = TraversalGroup(0, LayerMode.DISJ_MRG, tus)
        steps = list(tg.iterate(0b11))
        assert [s.index for s in steps] == [0, 1, 2, 3]
        assert [s.mask for s in steps] == [0b11, 0b10, 0b01, 0b11]
        assert tg.merge_steps == 4

    def test_three_way(self):
        tus = [fiber_tu(0, [0, 5]), fiber_tu(1, [1, 5]),
               fiber_tu(2, [5])]
        tg = TraversalGroup(0, LayerMode.DISJ_MRG, tus)
        steps = list(tg.iterate(0b111))
        assert [s.index for s in steps] == [0, 1, 5]
        assert steps[-1].mask == 0b111

    def test_inactive_lane_ignored(self):
        tus = [fiber_tu(0, [0, 2]), fiber_tu(1, [1])]
        tg = TraversalGroup(0, LayerMode.DISJ_MRG, tus)
        steps = list(tg.iterate(0b01))
        assert [s.index for s in steps] == [0, 2]


class TestConjunctiveMerge:
    def test_intersection_only_emits_all_true(self):
        tus = [fiber_tu(0, [0, 2, 3]), fiber_tu(1, [0, 1, 3])]
        tg = TraversalGroup(0, LayerMode.CONJ_MRG, tus)
        steps = list(tg.iterate(0b11))
        assert [s.index for s in steps] == [0, 3]
        assert all(s.mask == 0b11 for s in steps)

    def test_ends_when_any_lane_exhausted(self):
        tus = [fiber_tu(0, [0]), fiber_tu(1, [0, 1, 2, 3])]
        tg = TraversalGroup(0, LayerMode.CONJ_MRG, tus)
        steps = list(tg.iterate(0b11))
        assert [s.index for s in steps] == [0]
        # non-emitting advances still counted as merge work
        assert tg.merge_steps >= 1

    def test_disjoint_fibers_emit_nothing(self):
        tus = [fiber_tu(0, [0, 2]), fiber_tu(1, [1, 3])]
        tg = TraversalGroup(0, LayerMode.CONJ_MRG, tus)
        assert list(tg.iterate(0b11)) == []
