"""CLI tests for ``--trace`` and the ``repro trace`` subcommands.

Drives the exact pipeline the docs and the bench-smoke CI job use:
record a traced fig10 run, export it to Perfetto JSON, and render the
stall report — all in-process through ``cli.main`` for speed.

The figure drivers go through the analytic characterization + interval
core models, so a CLI-recorded trace carries ``sim.*`` and ``runtime.*``
tracks; the TMU-pipeline sections of the report are exercised on a
trace captured from a real :class:`TmuEngine` run.  The real recording
happens once (module scope) and later tests read its file.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs, runtime
from repro.cli import main


@pytest.fixture(autouse=True)
def _fresh_state():
    yield
    runtime.reset()
    obs.disable_tracing()
    obs.disable()


@pytest.fixture(scope="module")
def recorded_trace(tmp_path_factory):
    """A real sampled trace from a tiny fig10 run (recorded once)."""
    path = tmp_path_factory.mktemp("trace") / "trace.json"
    rc = main(
        [
            "fig10",
            "--workloads",
            "spmv",
            "--no-cache",
            "--trace",
            str(path),
            "--trace-sample",
            "4",
        ]
    )
    runtime.reset()
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def engine_trace(tmp_path_factory):
    """A trace file captured from a real TMU engine run (the CLI's
    figure drivers use the analytic models, not the event-level FSM)."""
    from repro.formats.csr import CsrMatrix
    from repro.programs.spmv import build_spmv_program
    from repro.tmu.engine import TmuEngine

    a = CsrMatrix.from_dense(np.array([[1.0, 0, 2], [0, 3, 0], [4, 0, 5]]))
    built = build_spmv_program(a, np.ones(3))
    with obs.trace_capture():
        stats = TmuEngine(built.program).run(built.handlers)
        trace = obs.trace_snapshot(meta={"experiments": "spmv-engine"})
    path = obs.write_trace(trace, tmp_path_factory.mktemp("engine") / "t.json")
    return path, stats


class TestRecord:
    def test_run_flag_writes_a_valid_trace(self, recorded_trace):
        trace = obs.load_trace(recorded_trace)
        obs.validate_trace(trace)
        assert trace["sample_every"] == 4
        assert trace["events"]
        assert trace["meta"]["experiments"] == "fig10"
        assert trace["meta"]["workloads"] == "spmv"
        tracks = {e[3] for e in trace["events"]}
        assert any(t.startswith("sim.core") for t in tracks)
        assert any(t.startswith("sim.cache.") for t in tracks)
        assert "runtime.executor" in tracks

    def test_tracing_switch_is_off_after_the_run(self, recorded_trace):
        assert not obs.tracing_enabled()

    def test_trace_flag_reports_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        rc = main(["fig10", "--workloads", "spmv", "--no-cache", "--trace", str(out)])
        assert rc == 0
        assert "trace:" in capsys.readouterr().err
        assert out.exists()

    def test_trace_record_shorthand(self, tmp_path, capsys):
        # an experiment records its own trace: --no-cache so every cell
        # is simulated, --trace-sample to thin the instants
        out = tmp_path / "rec.json"
        rc = main(
            [
                "fig10",
                "--workloads",
                "spmv",
                "--no-cache",
                "--trace",
                str(out),
                "--trace-sample",
                "4",
            ]
        )
        assert rc == 0
        assert obs.load_trace(out)["sample_every"] == 4
        capsys.readouterr()

    def test_trace_has_no_record_action(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "record", "fig10"])
        assert exc.value.code == 2
        assert "invalid choice: 'record'" in capsys.readouterr().err

    def test_bad_sample_value_is_an_error(self, tmp_path, capsys):
        rc = main(
            [
                "fig10",
                "--workloads",
                "spmv",
                "--no-cache",
                "--trace",
                str(tmp_path / "t.json"),
                "--trace-sample",
                "0",
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestExport:
    def test_export_writes_perfetto_json(self, recorded_trace, capsys):
        assert main(["trace", "export", str(recorded_trace)]) == 0
        assert "perfetto export:" in capsys.readouterr().out
        out = recorded_trace.parent / "trace.perfetto.json"
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        assert any(e["ph"] == "M" for e in doc["traceEvents"])

    def test_export_custom_out(self, recorded_trace, tmp_path, capsys):
        out = tmp_path / "custom.json"
        assert main(["trace", "export", str(recorded_trace), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["traceEvents"]
        capsys.readouterr()

    def test_export_missing_trace_is_an_error(self, tmp_path, capsys):
        rc = main(["trace", "export", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestReport:
    def test_report_on_a_cli_recording(self, recorded_trace, capsys):
        assert main(["trace", "report", str(recorded_trace)]) == 0
        out = capsys.readouterr().out
        assert "stall attribution · fig10" in out
        assert "core cycle decomposition (Fig. 11):" in out
        assert "span durations (virtual ticks):" in out

    def test_report_on_an_engine_trace(self, engine_trace, capsys):
        path, stats = engine_trace
        assert main(["trace", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "TMU pipeline (per TG layer):" in out
        assert f"iterations={stats.total_iterations}" in out
        assert f"records={stats.outq_records}" in out
        assert "memory arbiter:" in out
        assert "outQ:" in out

    def test_report_missing_trace_is_an_error(self, tmp_path, capsys):
        rc = main(["trace", "report", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_report_rejects_invalid_schema(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "repro.trace/1"}))
        rc = main(["trace", "report", str(bad)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
