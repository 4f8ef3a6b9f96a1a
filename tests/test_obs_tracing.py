"""Tests for the repro.obs event-tracing layer.

Covers the Tracer event/clock semantics, the ring buffer and sampling
bounds, the disabled-mode no-op path, worker merge (the process-pool
round trip), the ``repro.trace/1`` schema, and the end-to-end engine
instrumentation whose summaries the stall report folds.
"""

import pytest

from repro import obs
from repro.errors import ObsError
from repro.obs import NULL_TRACER, TRACE_SCHEMA, Tracer
from repro.obs.tracing import (
    load_trace,
    make_trace,
    trace_snapshot,
    validate_trace,
    write_trace,
)


@pytest.fixture(autouse=True)
def _tracing_off():
    """Each test starts and ends with tracing (and telemetry) disabled."""
    obs.disable_tracing()
    obs.disable()
    yield
    obs.disable_tracing()
    obs.disable()


class TestTracer:
    def test_span_instant_sample_recorded(self):
        tr = Tracer()
        tr.span("tmu.tg.layer0", "activation", 3, 4, {"n": 1})
        tr.instant("tmu.arbiter", "grant", args={"lane": 0})
        tr.sample("tmu.outq", "chunk_fill", 17)
        phases = [e[2] for e in tr.events]
        assert phases == ["X", "i", "C"]
        assert tr.events[0][:2] == [3, 4]
        assert tr.events[2][5] == {"value": 17}

    def test_clock_tick_and_alloc(self):
        tr = Tracer()
        assert tr.now == 0
        tr.tick()
        tr.tick(4)
        assert tr.now == 5
        start = tr.alloc(10)
        assert start == 5
        assert tr.now == 15

    def test_ring_buffer_drops_oldest(self):
        tr = Tracer(capacity=3)
        for k in range(5):
            tr.instant("t", f"e{k}")
        assert len(tr.events) == 3
        assert tr.dropped == 2
        assert [e[4] for e in tr.events] == ["e2", "e3", "e4"]

    def test_sampling_decimates_instants_but_not_spans(self):
        tr = Tracer(sample_every=3)
        for _ in range(9):
            tr.instant("t", "i")
        for _ in range(4):
            tr.span("t", "s", 0, 1)
        names = [e[4] for e in tr.events]
        assert names.count("i") == 3
        assert names.count("s") == 4

    def test_merge_offsets_the_worker_timeline(self):
        parent = Tracer()
        parent.tick(100)
        worker = Tracer()
        worker.span("tmu.engine", "run", 0, 8)
        worker.tick(8)
        parent.merge(worker.as_dict())
        assert parent.events[-1][0] == 100
        assert parent.now == 108

    def test_merge_accumulates_dropped(self):
        parent = Tracer()
        parent.merge({"events": [], "dropped": 4, "ticks": 0})
        assert parent.dropped == 4

    @pytest.mark.parametrize("kwargs", [{"capacity": 0}, {"sample_every": 0}])
    def test_bad_construction_raises(self, kwargs):
        with pytest.raises(ObsError):
            Tracer(**kwargs)


class TestModuleSwitch:
    def test_disabled_hands_out_the_shared_null_tracer(self):
        assert not obs.tracing_enabled()
        assert obs.tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.now == 0
        # call sites check ``enabled`` first, so it has nothing to record
        assert not hasattr(NULL_TRACER, "span")

    def test_enable_records_into_the_active_tracer(self):
        tr = obs.enable_tracing(sample_every=2)
        assert obs.tracer() is tr
        assert tr.sample_every == 2
        obs.disable_tracing()
        assert obs.tracer() is NULL_TRACER

    def test_trace_capture_restores_previous_state(self):
        outer = obs.enable_tracing()
        with obs.trace_capture() as inner:
            obs.tracer().instant("t", "e")
            assert obs.tracer() is inner
        assert obs.tracer() is outer
        assert len(outer.events) == 0


class TestSchema:
    def _tracer(self):
        tr = Tracer(meta={"note": "test"})
        tr.span("tmu.engine", "run", 0, 5, {"iterations": 9})
        tr.tick(5)
        tr.instant("tmu.arbiter", "grant")
        return tr

    def test_round_trip(self, tmp_path):
        trace = make_trace(self._tracer(), meta={"scale": "small"})
        path = write_trace(trace, tmp_path / "t.json")
        loaded = load_trace(path)
        assert loaded["schema"] == TRACE_SCHEMA
        assert loaded["meta"]["note"] == "test"
        assert loaded["meta"]["scale"] == "small"
        assert loaded["ticks"] == 5
        assert loaded["events"] == [list(e) for e in self._tracer().events]

    def test_snapshot_while_disabled_is_schema_valid_and_empty(self):
        trace = trace_snapshot(meta={"note": "empty"})
        validate_trace(trace)
        assert trace["events"] == []
        assert trace["meta"]["note"] == "empty"

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(ObsError, match="not found"):
            load_trace(tmp_path / "nope.json")

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda t: t.update(schema="repro.trace/0"), "unsupported"),
            (lambda t: t.pop("created_unix"), "created_unix"),
            (lambda t: t.pop("meta"), "meta"),
            (lambda t: t.pop("ticks"), "ticks"),
            (lambda t: t.pop("events"), "events"),
            (lambda t: t["events"].append([0, 0]), "must be a"),
            (lambda t: t["events"].append([0, 0, "Z", "t", "n", None]), "phase"),
            (lambda t: t["events"].append(["x", 0, "i", "t", "n", None]), "ts"),
            (lambda t: t["events"].append([0, 0, "i", 7, "n", None]), "track"),
            (lambda t: t["events"].append([0, 0, "i", "t", "n", 3]), "args"),
        ],
    )
    def test_validation_catches_violations(self, mutate, match):
        trace = make_trace(self._tracer())
        mutate(trace)
        with pytest.raises(ObsError, match=match):
            validate_trace(trace)


def _two_layer_program(rows=3, cols_per_row=2):
    """A tiny dense row-by-row traversal (mirrors the engine tests)."""
    import numpy as np

    from repro.tmu.program import Event, LayerMode, Program

    prog = Program("nest", lanes=1)
    n = rows * cols_per_row
    data = prog.place_array(np.arange(float(n)), 8, "data")
    ptrs = prog.place_array(
        np.arange(rows + 1, dtype=np.int64) * cols_per_row, 4, "ptrs"
    )
    l0 = prog.add_layer(LayerMode.SINGLE)
    row = l0.dns_fbrt(beg=0, end=rows)
    beg = row.add_mem_stream(ptrs, name="beg")
    end = row.add_mem_stream(ptrs, offset=1, name="end")
    l0.add_callback(Event.GITE, "outer_ite", [])
    l1 = prog.add_layer(LayerMode.SINGLE)
    col = l1.rng_fbrt(beg=beg, end=end)
    val = col.add_mem_stream(data, name="val")
    l1.add_callback(Event.GITE, "inner_ite", [l1.vec_operand([val])])
    return prog


class TestEngineTracing:
    def _run_traced(self, **tracer_kwargs):
        from repro.tmu.engine import TmuEngine

        with obs.trace_capture(**tracer_kwargs) as tr:
            engine = TmuEngine(_two_layer_program())
            stats = engine.run()
        return tr, stats

    def _summaries(self, tr):
        return {
            (e[3], e[4]): e[5]
            for e in tr.events
            if e[2] == "X" and e[5] is not None
        }

    def test_summary_spans_agree_with_run_stats(self):
        tr, stats = self._run_traced()
        summaries = self._summaries(tr)
        run = summaries[("tmu.engine", "run")]
        assert run["iterations"] == stats.total_iterations
        assert run["records"] == stats.outq_records
        assert run["memory_lines"] == stats.memory_lines
        outq = summaries[("tmu.outq", "summary")]
        assert outq["records"] == stats.outq_records
        assert outq["chunks"] == stats.outq_chunks
        arb = summaries[("tmu.arbiter", "summary")]
        assert arb["touches"] == stats.memory_touches
        for idx in range(2):
            layer = summaries[(f"tmu.tg.layer{idx}", "layer_summary")]
            assert layer["iterations"] == stats.layer_iterations[idx]
            assert layer["merge_steps"] == stats.layer_merge_steps[idx]
            assert layer["activations"] == stats.layer_activations[idx]

    def test_clock_ticks_once_per_gite(self):
        tr, stats = self._run_traced()
        assert tr.now == stats.total_iterations

    def test_fiber_spans_per_tu(self):
        tr, stats = self._run_traced()
        fibers = [e for e in tr.events if e[2] == "X" and e[4] == "fiber"]
        # one outer fiber plus one inner fiber per outer row
        assert len(fibers) == 4
        inner = [e for e in fibers if e[3] == "tmu.tu.layer1.lane0"]
        assert sum(e[5]["iterations"] for e in inner) == stats.layer_iterations[1]

    def test_arbiter_grants_match_line_requests(self):
        tr, stats = self._run_traced()
        grants = [e for e in tr.events if e[4] == "grant"]
        assert len(grants) == stats.memory_lines

    def test_disabled_run_emits_nothing_and_matches_baseline(self):
        from repro.tmu.engine import TmuEngine

        engine = TmuEngine(_two_layer_program())
        stats = engine.run()
        assert not obs.tracing_enabled()
        assert stats.total_iterations == 9

    def test_summaries_survive_ring_buffer_pressure(self):
        tr, stats = self._run_traced(capacity=8)
        assert tr.dropped > 0
        summaries = self._summaries(tr)
        run = summaries[("tmu.engine", "run")]
        assert run["iterations"] == stats.total_iterations


class TestExecutorTraceMerge:
    def test_worker_trace_rides_back_and_merges(self):
        record = {"schema": 1, "results": {}}

        class FakeTask:
            def evaluate(self):
                tr = obs.tracer()
                tr.span("tmu.engine", "run", tr.alloc(5), 5)
                return dict(record)

        from repro.runtime.executor import _evaluate_task

        out = _evaluate_task(FakeTask(), False, True)
        body = out["trace"]
        assert body["ticks"] == 5
        assert len(body["events"]) == 1
        # the parent folds the body into its own tracer
        with obs.trace_capture() as parent:
            parent.tick(3)
            obs.tracer().merge(body)
        assert parent.events[-1][0] == 3
        assert parent.now == 8

    def test_evaluate_without_capture_leaves_record_clean(self):
        class FakeTask:
            def evaluate(self):
                return {"results": {}}

        from repro.runtime.executor import _evaluate_task

        out = _evaluate_task(FakeTask())
        assert "trace" not in out and "telemetry" not in out
