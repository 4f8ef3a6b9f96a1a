"""Programming-API validation tests (Figure 8, Section 4.4)."""

import numpy as np
import pytest

from repro.errors import TMUConfigError
from repro.tmu.program import (
    Event,
    LayerMode,
    MaskOperand,
    Program,
    VectorOperand,
)


@pytest.fixture
def prog():
    return Program("test", lanes=2)


class TestDeclaration:
    def test_lane_auto_increment(self, prog):
        layer = prog.add_layer(LayerMode.LOCKSTEP)
        tu0 = layer.dns_fbrt(beg=0, end=4)
        tu1 = layer.dns_fbrt(beg=0, end=4)
        assert (tu0.lane, tu1.lane) == (0, 1)

    def test_lane_overflow(self, prog):
        layer = prog.add_layer(LayerMode.LOCKSTEP)
        layer.dns_fbrt(beg=0, end=4)
        layer.dns_fbrt(beg=0, end=4)
        with pytest.raises(TMUConfigError):
            layer.dns_fbrt(beg=0, end=4)

    def test_out_of_order_lane_rejected(self, prog):
        layer = prog.add_layer(LayerMode.LOCKSTEP)
        with pytest.raises(TMUConfigError):
            layer.dns_fbrt(beg=0, end=4, lane=1)

    def test_layer_budget(self):
        prog = Program("deep", lanes=1, max_layers=2)
        prog.add_layer(LayerMode.SINGLE)
        prog.add_layer(LayerMode.SINGLE)
        with pytest.raises(TMUConfigError):
            prog.add_layer(LayerMode.SINGLE)

    def test_needs_at_least_one_lane(self):
        with pytest.raises(TMUConfigError):
            Program("zero", lanes=0)


class TestOperands:
    def test_vec_operand_requires_local_streams(self, prog):
        l0 = prog.add_layer(LayerMode.BCAST)
        tu = l0.dns_fbrt(beg=0, end=4)
        arr = prog.place_array(np.zeros(4), 8, "a")
        s0 = tu.add_mem_stream(arr)
        l1 = prog.add_layer(LayerMode.SINGLE)
        l1.rng_fbrt(beg=s0, end=s0)
        with pytest.raises(TMUConfigError):
            l1.vec_operand([s0])  # s0 lives in layer 0

    def test_vec_operand_nonempty(self, prog):
        layer = prog.add_layer(LayerMode.SINGLE)
        layer.dns_fbrt(beg=0, end=4)
        with pytest.raises(TMUConfigError):
            layer.vec_operand([])

    def test_operand_kinds(self, prog):
        layer = prog.add_layer(LayerMode.SINGLE)
        tu = layer.dns_fbrt(beg=0, end=4)
        arr = prog.place_array(np.zeros(4), 8, "a")
        s = tu.add_mem_stream(arr)
        assert isinstance(layer.vec_operand([s]), VectorOperand)
        assert isinstance(layer.mask_operand(), MaskOperand)


class TestValidation:
    def test_empty_program(self, prog):
        with pytest.raises(TMUConfigError):
            prog.validate()

    def test_layer_without_tus(self, prog):
        prog.add_layer(LayerMode.SINGLE)
        with pytest.raises(TMUConfigError):
            prog.validate()

    def test_uniform_streams_per_layer(self, prog):
        layer = prog.add_layer(LayerMode.LOCKSTEP)
        tu0 = layer.dns_fbrt(beg=0, end=4)
        layer.dns_fbrt(beg=0, end=4)
        arr = prog.place_array(np.zeros(4), 8, "a")
        tu0.add_mem_stream(arr)
        with pytest.raises(TMUConfigError):
            prog.validate()

    def test_merge_layer_needs_merge_key(self, prog):
        l0 = prog.add_layer(LayerMode.BCAST)
        row = l0.dns_fbrt(beg=0, end=2)
        arr = prog.place_array(np.array([0, 1, 2]), 4, "ptrs")
        beg = row.add_mem_stream(arr)
        end = row.add_mem_stream(arr, offset=1)
        l1 = prog.add_layer(LayerMode.DISJ_MRG)
        l1.rng_fbrt(beg=beg, end=end)  # no merge key set
        with pytest.raises(TMUConfigError):
            prog.validate()

    def test_unknown_event_rejected(self, prog):
        layer = prog.add_layer(LayerMode.SINGLE)
        layer.dns_fbrt(beg=0, end=2)
        with pytest.raises(TMUConfigError):
            layer.add_callback("not-an-event", "cb", [])

    def test_valid_spmv_program_passes(self, prog):
        arr_p = prog.place_array(np.array([0, 2, 4]), 4, "ptrs")
        arr_v = prog.place_array(np.zeros(4), 8, "vals")
        l0 = prog.add_layer(LayerMode.BCAST)
        row = l0.dns_fbrt(beg=0, end=2)
        beg = row.add_mem_stream(arr_p)
        end = row.add_mem_stream(arr_p, offset=1)
        l1 = prog.add_layer(LayerMode.LOCKSTEP)
        for lane in range(2):
            col = l1.rng_fbrt(beg=beg, end=end, offset=lane, stride=2)
            col.add_mem_stream(arr_v)
        prog.validate()

    def test_arrays_get_disjoint_regions(self, prog):
        a = prog.place_array(np.zeros(10), 8, "a")
        b = prog.place_array(np.zeros(10), 8, "b")
        assert abs(a.base_address - b.base_address) >= 10 * 8


class TestEvents:
    def test_callbacks_filtered_by_event(self, prog):
        layer = prog.add_layer(LayerMode.SINGLE)
        layer.dns_fbrt(beg=0, end=2)
        layer.add_callback(Event.GITE, "body", [])
        layer.add_callback(Event.GEND, "tail", [])
        assert [c.callback_id for c in layer.callbacks_for(Event.GITE)
                ] == ["body"]
        assert [c.callback_id for c in layer.callbacks_for(Event.GEND)
                ] == ["tail"]
