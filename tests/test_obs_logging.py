"""Tests for repro.obs.logging — structured JSON logs + correlation."""

import io
import json
import logging as pylog

import pytest

from repro.obs import logging as rlog
from repro.runtime import Runtime, SimTask


@pytest.fixture(autouse=True)
def _pristine_logging():
    """Strip any JSON handler installed by a test before/after it."""
    root = pylog.getLogger("repro")

    def scrub():
        for handler in list(root.handlers):
            if isinstance(handler, rlog._JsonHandler):
                root.removeHandler(handler)
        root.setLevel(pylog.NOTSET)

    scrub()
    yield
    scrub()


def json_handlers():
    root = pylog.getLogger("repro")
    return [h for h in root.handlers if isinstance(h, rlog._JsonHandler)]


def capture(level=pylog.INFO):
    stream = io.StringIO()
    rlog.configure(stream=stream, level=level)
    return stream


def records(stream):
    return [json.loads(line) for line in
            stream.getvalue().splitlines() if line]


class TestJsonFormatter:
    def test_record_shape(self):
        stream = capture()
        log = rlog.get_logger("serve.test")
        rlog.log_event(log, pylog.INFO, "hello", cells=3, skipme=None)
        (rec,) = records(stream)
        assert rec["message"] == "hello"
        assert rec["level"] == "info"
        assert rec["logger"] == "repro.serve.test"
        assert rec["cells"] == 3
        assert "skipme" not in rec
        assert isinstance(rec["pid"], int)
        assert rec["ts"].endswith("+00:00")

    def test_exception_rides_as_error_field(self):
        stream = capture()
        log = rlog.get_logger("x")
        try:
            raise ValueError("boom")
        except ValueError:
            log.exception("failed")
        (rec,) = records(stream)
        assert rec["error"] == "ValueError('boom')"
        assert rec["level"] == "error"

    def test_below_level_is_dropped_cheaply(self):
        stream = capture(level=pylog.WARNING)
        rlog.log_event(rlog.get_logger("x"), pylog.INFO, "quiet")
        assert records(stream) == []


class TestCorrelation:
    def test_nesting_layers_and_unwinds(self):
        assert rlog.context() == {}
        with rlog.correlation(run_key="r1"):
            with rlog.correlation(job_id="j1", none_field=None):
                assert rlog.context() == {"run_key": "r1", "job_id": "j1"}
            assert rlog.context() == {"run_key": "r1"}
        assert rlog.context() == {}

    def test_context_stamps_every_record(self):
        stream = capture()
        log = rlog.get_logger("x")
        with rlog.correlation(run_key="r1", job_id="j9"):
            rlog.log_event(log, pylog.INFO, "inside")
        rlog.log_event(log, pylog.INFO, "outside")
        inside, outside = records(stream)
        assert inside["run_key"] == "r1" and inside["job_id"] == "j9"
        assert "run_key" not in outside

    def test_worker_context_ships_a_merged_copy(self):
        with rlog.correlation(run_key="r1"):
            shipped = rlog.worker_context({"job_id": "j2", "drop": None})
        assert shipped == {"run_key": "r1", "job_id": "j2"}
        # mutating the shipped dict never leaks back
        shipped["run_key"] = "clobbered"
        assert rlog.context() == {}


class TestConfigure:
    def test_reconfigure_replaces_not_stacks(self):
        first, second = io.StringIO(), io.StringIO()
        rlog.configure(stream=first)
        rlog.configure(stream=second)
        rlog.log_event(rlog.get_logger("x"), pylog.INFO, "once")
        assert first.getvalue() == ""
        assert len(records(second)) == 1
        assert len(json_handlers()) == 1

    def test_string_levels_are_accepted(self):
        stream = io.StringIO()
        root = rlog.configure(stream=stream, level="warning")
        assert root.level == pylog.WARNING

    def test_unconfigured_library_stays_silent(self):
        assert not json_handlers()
        # NullHandler: no "no handler" warning, no output anywhere
        rlog.log_event(rlog.get_logger("x"), pylog.INFO, "void")


class TestExecutorIntegration:
    def test_run_key_correlates_every_executor_record(self):
        stream = capture()
        rt = Runtime(jobs=1)
        report = rt.run([SimTask("spmv", "M1")])
        assert not report.failures
        recs = records(stream)
        assert recs, "executor emitted no log records"
        assert {r.get("run_key") for r in recs} == {rt.run_key}
        cells = [r for r in recs if r["kind"] == "cell"]
        assert cells and cells[0]["state"] == "simulated"
        assert cells[0]["done"] == cells[0]["total"] == 1
        # the correlation binding unwound with the run
        assert rlog.context() == {}
