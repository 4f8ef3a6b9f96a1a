"""Engine semantics tests: ordering, hierarchy, env resolution."""

import numpy as np
import pytest

from repro.errors import TMUConfigError, TMURuntimeError
from repro.tmu import Event, LayerMode, Program, TmuEngine
from repro.tmu.program import ScalarOperand


def two_layer_program(rows=3, cols_per_row=2):
    """A program traversing a tiny dense matrix row by row."""
    prog = Program("nest", lanes=1)
    n = rows * cols_per_row
    data = prog.place_array(np.arange(float(n)), 8, "data")
    ptrs = prog.place_array(
        np.arange(rows + 1, dtype=np.int64) * cols_per_row, 4, "ptrs")

    l0 = prog.add_layer(LayerMode.SINGLE)
    row = l0.dns_fbrt(beg=0, end=rows)
    beg = row.add_mem_stream(ptrs, name="beg")
    end = row.add_mem_stream(ptrs, offset=1, name="end")
    l0.add_callback(Event.GBEG, "outer_beg", [])
    l0.add_callback(Event.GITE, "outer_ite", [])
    l0.add_callback(Event.GEND, "outer_end", [])

    l1 = prog.add_layer(LayerMode.SINGLE)
    col = l1.rng_fbrt(beg=beg, end=end)
    val = col.add_mem_stream(data, name="val")
    l1.add_callback(Event.GITE, "inner_ite", [l1.vec_operand([val])])
    l1.add_callback(Event.GEND, "inner_end", [])
    return prog


class TestOrdering:
    def test_loop_nest_order(self):
        """Callbacks fire exactly as the equivalent nested loop would
        (outQ serialization across TGs, Section 5.3)."""
        prog = two_layer_program(rows=2, cols_per_row=2)
        order = []
        engine = TmuEngine(prog)
        engine.run(lambda rec: order.append(rec.callback_id))
        assert order == [
            "outer_beg",
            "outer_ite", "inner_ite", "inner_ite", "inner_end",
            "outer_ite", "inner_ite", "inner_ite", "inner_end",
            "outer_end",
        ]

    def test_operand_values_in_order(self):
        prog = two_layer_program(rows=3, cols_per_row=2)
        seen = []
        engine = TmuEngine(prog)
        engine.run({"inner_ite": lambda r: seen.append(r.operands[0][0])})
        assert seen == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_stats_layers(self):
        prog = two_layer_program(rows=3, cols_per_row=2)
        stats = TmuEngine(prog).run()
        assert stats.layer_iterations == [3, 6]
        assert stats.layer_activations == [1, 3]


class TestEnvResolution:
    def test_grandparent_stream_visible_at_leaf(self):
        """A layer-0 stream is resolvable as a scalar operand at layer
        2 (the fwd semantics)."""
        prog = Program("deep", lanes=1, max_layers=3)
        ids = prog.place_array(np.array([7.0, 8.0]), 8, "ids")
        ptr = prog.place_array(np.array([0, 1, 2]), 4, "ptr")

        l0 = prog.add_layer(LayerMode.SINGLE)
        root = l0.dns_fbrt(beg=0, end=2)
        label = root.add_mem_stream(ids, name="label")
        b0 = root.add_mem_stream(ptr, name="b0")
        e0 = root.add_mem_stream(ptr, offset=1, name="e0")

        l1 = prog.add_layer(LayerMode.SINGLE)
        mid = l1.rng_fbrt(beg=b0, end=e0)
        b1 = mid.add_mem_stream(ptr, name="b1")
        e1 = mid.add_mem_stream(ptr, offset=1, name="e1")

        l2 = prog.add_layer(LayerMode.SINGLE)
        leaf = l2.rng_fbrt(beg=b1, end=e1)
        leaf.add_mem_stream(ids, name="junk")
        l2.add_callback(Event.GITE, "leaf", [ScalarOperand(label)])

        seen = []
        TmuEngine(prog).run({"leaf": lambda r: seen.append(
            r.operands[0])})
        assert 7.0 in seen or 8.0 in seen

    def test_missing_operand_raises(self):
        prog = Program("broken", lanes=1)
        prog.place_array(np.zeros(4), 8, "a")
        l0 = prog.add_layer(LayerMode.SINGLE)
        l0.dns_fbrt(beg=0, end=2)
        stray_prog = Program("other", lanes=1)
        stray_arr = stray_prog.place_array(np.zeros(4), 8, "b")
        stray_l0 = stray_prog.add_layer(LayerMode.SINGLE)
        stray_tu = stray_l0.dns_fbrt(beg=0, end=2)
        stray = stray_tu.add_mem_stream(stray_arr, name="stray")
        l0.add_callback(Event.GEND, "cb", [ScalarOperand(stray)])
        with pytest.raises(TMURuntimeError):
            TmuEngine(prog).run()


class TestHierarchicalPredicates:
    def test_merge_mask_gates_child_lanes(self):
        """DCSR-style hierarchy: the row-level DisjMrg predicate selects
        which lanes' column fibers merge below (Section 4.2)."""
        prog = Program("hier", lanes=2)
        # lane 0 has rows {0, 1}; lane 1 has rows {1}
        r0 = prog.place_array(np.array([0, 1]), 4, "rows0")
        r1 = prog.place_array(np.array([1]), 4, "rows1")
        p0 = prog.place_array(np.array([0, 1, 2]), 4, "p0")
        p1 = prog.place_array(np.array([0, 1]), 4, "p1")
        c0 = prog.place_array(np.array([5, 6]), 4, "c0")
        c1 = prog.place_array(np.array([5]), 4, "c1")

        l0 = prog.add_layer(LayerMode.DISJ_MRG)
        tu0 = l0.dns_fbrt(beg=0, end=2)
        k0 = tu0.add_mem_stream(r0, name="ridx0")
        b0 = tu0.add_mem_stream(p0, name="b0")
        e0 = tu0.add_mem_stream(p0, offset=1, name="e0")
        tu0.set_merge_key(k0)
        tu1 = l0.dns_fbrt(beg=0, end=1)
        k1 = tu1.add_mem_stream(r1, name="ridx1")
        b1 = tu1.add_mem_stream(p1, name="b1")
        e1 = tu1.add_mem_stream(p1, offset=1, name="e1")
        tu1.set_merge_key(k1)

        l1 = prog.add_layer(LayerMode.DISJ_MRG)
        ca = l1.rng_fbrt(beg=b0, end=e0)
        ka = ca.add_mem_stream(c0, name="col0")
        ca.set_merge_key(ka)
        cb = l1.rng_fbrt(beg=b1, end=e1)
        kb = cb.add_mem_stream(c1, name="col1")
        cb.set_merge_key(kb)
        l1.add_callback(Event.GITE, "point",
                        [l1.mask_operand(), l1.index_operand()])

        points = []
        TmuEngine(prog).run({"point": lambda r: points.append(
            (int(r.operands[0]), int(r.operands[1])))})
        # row 0: only lane 0 active -> (mask=01, col 5)
        # row 1: both lanes active; lane 0 holds col {6}, lane 1 {5}
        assert points == [(0b01, 5), (0b10, 5), (0b01, 6)]


class TestRuntimeGuards:
    def test_layer_overflow_at_engine(self):
        prog = two_layer_program()
        from repro.config import TMUConfig

        with pytest.raises(TMUConfigError):
            TmuEngine(prog, TMUConfig(layers=1))
