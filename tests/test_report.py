"""Tests for the HTML flight recorder (repro.obs.report + repro report).

The load-bearing claim: every number in the report comes from the same
``repro.store.query`` rows as the CLI, so the stall-share section is
checked for *byte-identical* values against ``stall_shares`` — the
golden numbers ``repro query stalls`` prints.
"""

from __future__ import annotations

import re

import pytest

from repro import store as st
from repro.cli import main
from repro.obs.report import render_report, write_report
from repro.store import ExperimentStore
from repro.obs.snapshot import fmt_cell

from tests.test_store import bench_snapshot, layer_trace, manifest


@pytest.fixture
def populated(tmp_path):
    path = tmp_path / "db.sqlite"
    with ExperimentStore(path) as db:
        st.ingest_manifest(db, manifest("r1", created=100.0))
        st.ingest_snapshot(db, bench_snapshot("r1", 6.5, 100.0))
        st.ingest_snapshot(db, bench_snapshot("r2", 15.25, 200.0))
        st.ingest_trace(db, layer_trace("r1", stalls=20))
        st.ingest_trace(db, layer_trace("r2", stalls=33))
        yield db


class TestRenderReport:
    def test_is_self_contained(self, populated):
        page = render_report(populated)
        assert page.startswith("<!DOCTYPE html>")
        # no external assets of any kind: no scripts, links, imports,
        # images or remote URLs — the file must render from a mail
        # attachment or a CI artifact tab
        for banned in ("<script", "<link", "@import", "http://",
                       "https://", "<img", "url("):
            assert banned not in page, f"external asset: {banned}"

    def test_stall_numbers_match_repro_query_stalls(self, populated):
        rows, _ = st.stall_shares(populated, by="layer")
        assert rows, "fixture must produce stall rows"
        page = render_report(populated)
        for row in rows:
            # the exact strings `repro query stalls` would print
            for col in ("layer", "traces", "merge_steps", "stalls",
                        "stall_share"):
                assert f">{fmt_cell(row[col])}<" in page
        # the bar chart's direct value labels use the same formatter
        for row in rows:
            assert re.search(
                rf'class="val"[^>]*>{re.escape(fmt_cell(row["stall_share"]))}<',
                page)

    def test_sparkline_plots_latest_per_rev(self, populated):
        page = render_report(populated)
        rate_rows, _ = st.cells_per_sec(populated, by="rev")
        assert len(rate_rows) == 2
        assert page.count("<circle") == 2
        assert "r1: 6.5 cells/sec" in page
        assert "15.25" in page  # direct label on the last point

    def test_heroes_summarize_runs(self, populated):
        page = render_report(populated)
        run_rows, _ = st.runs_overview(populated)
        assert f'<div class="v">{len(run_rows)}</div>' in page
        # the manifest fixture has 4 cells, 1 failed
        assert '<div class="k">cells</div>' in page
        assert '<div class="k">failed cells</div>' in page

    def test_empty_store_renders_placeholders(self, tmp_path):
        with ExperimentStore(tmp_path / "empty.sqlite") as db:
            page = render_report(db, title="empty db")
        assert "no throughput history ingested" in page
        assert "no traces ingested" in page
        assert "no runs ingested" in page
        assert "<svg" not in page

    def test_title_and_label_values_are_escaped(self, tmp_path):
        with ExperimentStore(tmp_path / "db.sqlite") as db:
            page = render_report(db, title='<b>"evil"</b>')
        assert "<b>" not in page
        assert "&lt;b&gt;" in page


class TestWriteReportAndCli:
    def test_write_report_creates_parents(self, populated, tmp_path):
        out = write_report(populated, tmp_path / "deep/dir/report.html")
        assert out.exists()
        assert out.read_text(encoding="utf-8").startswith("<!DOCTYPE")

    def test_cli_report_end_to_end(self, populated, tmp_path, capsys):
        out = tmp_path / "report.html"
        code = main(["report", "--store", str(populated.path),
                     "--out", str(out), "--title", "ci nightly"])
        assert code == 0
        assert "report.html" in capsys.readouterr().out
        page = out.read_text(encoding="utf-8")
        assert "<title>ci nightly</title>" in page

    def test_cli_report_missing_store_is_an_error(self, tmp_path, capsys):
        code = main(["report", "--store", str(tmp_path / "nope.sqlite"),
                     "--out", str(tmp_path / "r.html")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
