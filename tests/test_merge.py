"""Merge tests (Section 2.4): the TMU engine's disjunctive and
conjunctive merges and its lockstep co-iteration, on the paper's
Figure 2 example and on arbitrary sorted fibers, checked through the
values each step marshals."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import TMUConfigError
from repro.tmu import Event, LayerMode, Program, TmuEngine
from tests.test_engine_properties import (
    _lane_coords,
    _merge_program,
    unique_fibers,
)

#: coordinates of ``unique_fibers`` lie in ``[0, SIZE)``
SIZE = 26


def _steps(fiber_indices, mode, values=None):
    """Run a one-layer merge; one ``(coord, mask, lane values)`` per
    step, 0.0 for a lane outside the mask.  Lane values default to
    ``1, 2, ...`` in coordinate order."""
    prog, steps = _merge_program(fiber_indices, mode, values=values)

    def record(r):
        lane_values = tuple(float(v) for v in r.operands[2])
        steps.append((int(r.operands[0]), int(r.operands[1]), lane_values))

    TmuEngine(prog).run({"pt": record})
    return steps


def _dense(lanes):
    """Each lane as a dense vector holding ``1, 2, ...`` at its
    coordinates, the values :func:`_merge_program` places."""
    out = np.zeros((len(lanes), SIZE))
    for k, lane in enumerate(lanes):
        out[k, lane] = np.arange(1.0, lane.size + 1)
    return out


class TestFigure2:
    """The paper's Figure 2 operands: A holds a, b, c at coordinates
    {0, 2, 3} and B holds d, e, f at {0, 1, 3}, here 1, 2, 3 and 10,
    20, 30."""

    FIBERS = [[0, 2, 3], [0, 1, 3]]
    VALUES = [[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]]

    def _run(self, mode):
        return _steps(self.FIBERS, mode, self.VALUES)

    def test_disjunctive_masks(self):
        steps = self._run(LayerMode.DISJ_MRG)
        # paper: msk stream is 11, 01, 10, 11 (lane 0 is the low bit)
        assert [m for _, m, _ in steps] == [0b11, 0b10, 0b01, 0b11]
        assert [c for c, _, _ in steps] == [0, 1, 2, 3]

    def test_disjunctive_sums(self):
        steps = self._run(LayerMode.DISJ_MRG)
        expected = [(1.0, 10.0), (0.0, 20.0), (2.0, 0.0), (3.0, 30.0)]
        assert [v for _, _, v in steps] == expected
        # the sum Figure 2 computes: a+d, e, b, c+f
        assert [sum(v) for _, _, v in steps] == [11.0, 20.0, 2.0, 33.0]

    def test_conjunctive_intersection(self):
        steps = self._run(LayerMode.CONJ_MRG)
        assert [c for c, _, _ in steps] == [0, 3]
        assert all(m == 0b11 for _, m, _ in steps)

    def test_conjunctive_products(self):
        steps = self._run(LayerMode.CONJ_MRG)
        assert [v for _, _, v in steps] == [(1.0, 10.0), (3.0, 30.0)]
        # the product Figure 2 computes: a*d, c*f
        assert [x * y for _, _, (x, y) in steps] == [10.0, 90.0]


class TestProperties:
    @given(unique_fibers)
    @settings(max_examples=60, deadline=None)
    def test_disjunctive_is_union(self, fibers):
        steps = _steps(fibers, LayerMode.DISJ_MRG)
        coords = reduce(np.union1d, _lane_coords(fibers))
        assert [c for c, _, _ in steps] == coords.tolist()

    @given(unique_fibers)
    @settings(max_examples=60, deadline=None)
    def test_conjunctive_is_intersection(self, fibers):
        lanes = _lane_coords(fibers)
        steps = _steps(fibers, LayerMode.CONJ_MRG)
        coords = reduce(np.intersect1d, lanes)
        assert [c for c, _, _ in steps] == coords.tolist()
        # multiplying each step's lanes is the product of the dense
        # operands, which is zero off the intersection
        expected = _dense(lanes).prod(axis=0)[coords].tolist()
        assert [float(np.prod(v)) for _, _, v in steps] == expected

    @given(unique_fibers)
    @settings(max_examples=60, deadline=None)
    def test_disjunctive_sum_matches_dense(self, fibers):
        lanes = _lane_coords(fibers)
        out = np.zeros(SIZE)
        for c, _, v in _steps(fibers, LayerMode.DISJ_MRG):
            out[c] = sum(v)
        assert np.array_equal(out, _dense(lanes).sum(axis=0))

    @given(unique_fibers)
    @settings(max_examples=40, deadline=None)
    def test_masks_cover_every_element_once(self, fibers):
        lanes = _lane_coords(fibers)
        steps = _steps(fibers, LayerMode.DISJ_MRG)
        for k, lane in enumerate(lanes):
            # lane k's bit is set on exactly its own coordinates, and
            # those steps hand over its values once each, in order
            active = [(c, v[k]) for c, m, v in steps if m >> k & 1]
            assert [c for c, _ in active] == lane.tolist()
            assert [x for _, x in active] == list(range(1, lane.size + 1))


class TestLockstep:
    def test_pads_shorter_fibers(self):
        values = [[1.0, 2.0, 3.0], [10.0, 20.0]]
        steps = _steps([[0, 1, 2], [0, 5]], LayerMode.LOCKSTEP, values)
        assert len(steps) == 3
        assert steps[2][1] == 0b01
        assert steps[2][2] == (3.0, 0.0)

    def test_empty_input_rejected(self):
        prog = Program("empty_lockstep", lanes=1)
        layer = prog.add_layer(LayerMode.LOCKSTEP)
        layer.add_callback(Event.GITE, "pt", [layer.index_operand()])
        with pytest.raises(TMUConfigError, match="no TUs"):
            TmuEngine(prog).run({"pt": lambda r: None})
