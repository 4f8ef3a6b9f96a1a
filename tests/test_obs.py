"""Tests for the repro.obs telemetry layer.

Covers the instrument semantics, the disabled-mode no-op path, registry
merging (the process-pool round trip), snapshot schema round-trips, and
the diff/regression helpers the ``bench-smoke`` CI gate is built on.
"""

import json

import pytest

from repro import obs
from repro.errors import ObsError
from repro.obs import (
    NULL_TIMER,
    NULL_TRACER,
    Histogram,
    Registry,
)
from repro.obs.snapshot import (
    SCHEMA,
    diff_snapshots,
    load_snapshot,
    make_snapshot,
    render_diff,
    render_snapshot,
    validate_snapshot,
    write_bench_snapshot,
    write_snapshot,
)


@pytest.fixture(autouse=True)
def _telemetry_off():
    """Each test starts and ends with telemetry disabled."""
    obs.disable()
    yield
    obs.disable()


class TestInstruments:
    def test_counter_accumulates(self):
        reg = Registry()
        reg.counter("a.b").add()
        reg.counter("a.b").add(41)
        assert reg.counter("a.b").value == 42

    def test_gauge_tracks_high_water(self):
        reg = Registry()
        g = reg.gauge("depth")
        g.set(3)
        g.set(7)
        g.set(2)
        assert g.as_dict() == {"value": 2, "high_water": 7}

    def test_histogram_buckets_and_exact_moments(self):
        h = Histogram("h")
        for v in (0.5, 1, 2, 3, 1000):
            h.record(v)
        d = h.as_dict()
        assert d["count"] == 5
        assert d["total"] == pytest.approx(1006.5)
        assert d["min"] == 0.5
        assert d["max"] == 1000
        # 0.5 and 1 -> bucket 0; 2 -> 1; 3 -> 2; 1000 -> 10
        assert d["buckets"] == {"0": 2, "1": 1, "2": 1, "10": 1}
        assert h.mean == pytest.approx(1006.5 / 5)

    def test_timer_context_manager_accumulates(self):
        reg = Registry()
        t = reg.timer("work")
        with t:
            pass
        t.observe(0.5)
        d = t.as_dict()
        assert d["count"] == 2
        assert d["total_s"] >= 0.5
        assert d["max_s"] >= 0.5

    def test_kind_mismatch_raises(self):
        reg = Registry()
        reg.counter("x")
        with pytest.raises(ObsError, match="already registered"):
            reg.gauge("x")


class TestModuleSwitch:
    def test_disabled_hands_out_shared_null_instruments(self):
        assert not obs.enabled()
        assert obs.timer("a") is NULL_TIMER
        assert obs.tracer() is NULL_TRACER
        assert not obs.tracer().enabled
        # the no-op really is a no-op
        with obs.timer("a"):
            pass

    def test_enabled_records_into_the_active_registry(self):
        reg = obs.enable()
        with obs.timer("wall"):
            pass
        assert reg.timer("wall").count == 1
        obs.disable()
        assert obs.active() is None

    def test_capture_restores_previous_state(self):
        outer = obs.enable()
        with obs.capture() as inner:
            obs.active().counter("c").add()
            assert obs.active() is inner
        assert obs.active() is outer
        assert inner.counter("c").value == 1
        assert outer.counter("c").value == 0

    def test_snapshot_while_disabled_is_schema_valid_and_empty(self):
        snap = obs.snapshot(meta={"note": "empty"})
        validate_snapshot(snap)
        assert snap["counters"] == {}
        assert snap["meta"]["note"] == "empty"


class TestRegistry:
    def test_merge_folds_worker_bodies(self):
        parent = Registry()
        parent.counter("n").add(1)
        parent.histogram("h").record(8)
        worker = Registry()
        worker.counter("n").add(2)
        worker.histogram("h").record(16)
        worker.gauge("g").set(5)
        worker.timer("t").observe(0.25)
        parent.merge(worker.as_dict())
        assert parent.counter("n").value == 3
        assert parent.histogram("h").count == 2
        assert parent.histogram("h").buckets == {3: 1, 4: 1}
        assert parent.gauge("g").high_water == 5
        assert parent.timer("t").total == pytest.approx(0.25)

    def test_merge_of_empty_worker_registry_is_a_no_op(self):
        parent = Registry()
        parent.counter("n").add(7)
        parent.histogram("h").record(3)
        before = parent.as_dict()
        parent.merge(Registry().as_dict())
        assert parent.as_dict() == before

    def test_merge_histograms_with_mismatched_bucket_sets(self):
        parent = Registry()
        for v in (0.5, 1):            # bucket 0 only
            parent.histogram("h").record(v)
        worker = Registry()
        for v in (100, 1000):         # buckets 7 and 10 only
            worker.histogram("h").record(v)
        parent.merge(worker.as_dict())
        h = parent.histogram("h")
        assert h.count == 4
        assert h.buckets == {0: 2, 7: 1, 10: 1}
        assert sum(h.buckets.values()) == h.count
        assert (h.min, h.max) == (0.5, 1000)
        # an empty-count body must not poison the exact envelope
        # (its as_dict reports min=max=0.0 as placeholders)
        h.merge(Registry().histogram("h").as_dict())
        assert h.count == 4 and h.min == 0.5

    def test_merge_timer_after_exception_unwound_starts(self):
        worker = Registry()
        t = worker.timer("work")
        with pytest.raises(RuntimeError):
            with t:
                raise RuntimeError("cell died")
        # the context manager observed on the way out and left no
        # dangling start behind
        assert t.count == 1 and t._starts == []
        parent = Registry()
        parent.merge(worker.as_dict())
        merged = parent.timer("work")
        assert merged.count == 1
        assert merged.min == merged.max == pytest.approx(t.total)
        # a never-exited timer ships count=0; merging it is a no-op
        # rather than dragging min to the 0.0 placeholder
        zombie = Registry()
        zombie.timer("work").__enter__()
        parent.merge(zombie.as_dict())
        assert parent.timer("work").count == 1
        assert parent.timer("work").min == pytest.approx(t.total)


class TestSnapshot:
    def _registry(self):
        reg = Registry()
        reg.counter("runs").add(2)
        reg.gauge("rate").set(1.5)
        reg.histogram("sizes").record(64)
        reg.timer("wall").observe(0.125)
        return reg

    def test_round_trip(self, tmp_path):
        snap = make_snapshot(self._registry(), meta={"scale": "small"})
        path = write_snapshot(snap, tmp_path / "run.json")
        loaded = load_snapshot(path)
        assert loaded == json.loads(json.dumps(snap))
        assert loaded["schema"] == SCHEMA
        assert loaded["meta"]["scale"] == "small"
        assert "rev" in loaded["meta"] and "python" in loaded["meta"]

    def test_bench_snapshot_named_after_rev(self, tmp_path):
        snap = make_snapshot(self._registry(), meta={"rev": "abc1234"})
        path = write_bench_snapshot(snap, tmp_path)
        assert path.name == "BENCH_abc1234.json"
        load_snapshot(path)

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda s: s.update(schema="repro.obs/0"), "unsupported"),
            (lambda s: s.pop("created_unix"), "created_unix"),
            (lambda s: s.pop("meta"), "meta"),
            (lambda s: s.pop("timers"), "timers"),
            (lambda s: s["counters"].update(bad="x"), "must be a number"),
            (lambda s: s["gauges"]["rate"].pop("high_water"), "missing fields"),
        ],
    )
    def test_validation_catches_violations(self, mutate, match):
        snap = make_snapshot(self._registry())
        mutate(snap)
        with pytest.raises(ObsError, match=match):
            validate_snapshot(snap)

    def test_render_dump_lists_every_metric(self):
        snap = make_snapshot(self._registry())
        text = render_snapshot(snap)
        for name in ("runs", "rate", "sizes", "wall"):
            assert name in text


class TestDiffAndGate:
    def _snap(self, cells_per_sec, runs=3):
        reg = Registry()
        reg.counter("runs").add(runs)
        reg.gauge("cells_per_sec").set(cells_per_sec)
        return make_snapshot(reg)

    def test_diff_rows(self):
        rows = diff_snapshots(self._snap(10.0), self._snap(12.0, runs=4))
        by_name = {r["metric"]: r for r in rows}
        assert by_name["cells_per_sec"]["delta"] == pytest.approx(2.0)
        assert by_name["cells_per_sec"]["ratio"] == pytest.approx(1.2)
        assert by_name["runs"]["delta"] == 1
        assert "cells_per_sec" in render_diff(rows)

    def test_diff_handles_one_sided_metrics(self):
        a = self._snap(10.0)
        b = self._snap(10.0)
        b["counters"]["only_b"] = 7
        rows = {r["metric"]: r for r in diff_snapshots(a, b)}
        assert rows["only_b"]["a"] is None
        assert rows["only_b"]["delta"] is None


class TestTimerSafety:
    """The timer context manager must survive exceptions and nesting."""

    def test_exception_in_body_still_observes(self):
        reg = Registry()
        t = reg.timer("work")
        with pytest.raises(RuntimeError):
            with t:
                raise RuntimeError("boom")
        assert t.as_dict()["count"] == 1

    def test_reentrant_nesting_observes_both_levels(self):
        reg = Registry()
        t = reg.timer("work")
        with t:
            with t:
                pass
        d = t.as_dict()
        assert d["count"] == 2
        # the outer interval contains the inner one
        assert d["max_s"] >= d["min_s"]

    def test_exit_without_enter_is_harmless(self):
        reg = Registry()
        t = reg.timer("work")
        t.__exit__(None, None, None)
        assert t.as_dict()["count"] == 0


class TestHistogramQuantile:
    def test_empty_histogram_is_zero(self):
        assert Histogram("h").quantile(0.5) == 0.0

    def test_q_out_of_range_raises(self):
        h = Histogram("h")
        h.record(1)
        with pytest.raises(ValueError, match="quantile"):
            h.quantile(1.5)

    def test_single_bucket_clamps_to_the_exact_envelope(self):
        h = Histogram("h")
        for _ in range(3):
            h.record(5)
        # bucket 3 spans (4, 8]; min == max == 5 pins every quantile
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert h.quantile(q) == 5.0

    def test_quantiles_are_monotone_and_bounded(self):
        h = Histogram("h")
        for v in (0.5, 1, 2, 3, 8, 100, 1000):
            h.record(v)
        qs = [h.quantile(q) for q in (0.1, 0.25, 0.5, 0.75, 0.95, 1.0)]
        assert qs == sorted(qs)
        assert all(0.5 <= v <= 1000 for v in qs)
        assert h.quantile(1.0) == 1000

    def test_mean_stays_exact(self):
        h = Histogram("h")
        for v in (1, 2, 3):
            h.record(v)
        assert h.mean == pytest.approx(2.0)


class TestBenchRev:
    """BENCH_<rev> naming: unknown fallback and the -dirty suffix."""

    def _fake_git(self, monkeypatch, *, rev="abc1234", status=""):
        import importlib
        import subprocess as sp

        # the package re-exports a snapshot() function that shadows the
        # submodule attribute, so resolve the module itself
        snapmod = importlib.import_module("repro.obs.snapshot")

        def fake_run(cmd, **kwargs):
            if rev is None:
                raise OSError("git not found")
            out = rev + "\n" if "rev-parse" in cmd else status
            return sp.CompletedProcess(cmd, 0, stdout=out, stderr="")

        monkeypatch.setattr(snapmod.subprocess, "run", fake_run)

    def test_clean_tree_uses_the_short_rev(self, monkeypatch):
        self._fake_git(monkeypatch)
        assert obs.bench_rev() == "abc1234"
        assert not obs.worktree_dirty()

    def test_dirty_tree_gets_the_suffix(self, monkeypatch):
        self._fake_git(monkeypatch, status=" M src/repro/cli.py\n")
        assert obs.worktree_dirty()
        assert obs.bench_rev() == "abc1234-dirty"

    def test_no_git_falls_back_to_unknown(self, monkeypatch):
        self._fake_git(monkeypatch, rev=None)
        assert obs.bench_rev() == "unknown"
        assert not obs.worktree_dirty()

    def test_bench_snapshot_filename_uses_fallback(self, monkeypatch, tmp_path):
        self._fake_git(monkeypatch, rev=None)
        snap = make_snapshot(Registry())
        snap["meta"].pop("rev", None)
        path = write_bench_snapshot(snap, tmp_path)
        assert path.name == "BENCH_unknown.json"

    def test_rerun_at_same_rev_suffixes_instead_of_overwriting(
            self, monkeypatch, tmp_path):
        self._fake_git(monkeypatch)
        names = []
        for _ in range(3):
            reg = Registry()
            reg.counter("x").add()
            names.append(write_bench_snapshot(
                make_snapshot(reg), tmp_path).name)
        assert names == ["BENCH_abc1234.json", "BENCH_abc1234-2.json",
                         "BENCH_abc1234-3.json"]
        # the first point survived untouched
        assert len(list(tmp_path.glob("BENCH_*.json"))) == 3
