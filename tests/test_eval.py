"""Experiment driver and reporting tests (fast subset)."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.eval import experiments as ex
from repro.eval.reporting import heatmap_table, text_table
from repro.eval.workloads import (
    WORKLOADS,
    as_order3,
    inputs_for,
    run_workload,
)
from repro.formats.coo import CooTensor


class TestRegistry:
    def test_categories_cover_paper_grouping(self):
        by_category = {}
        for w, spec in WORKLOADS.items():
            by_category.setdefault(spec.category, set()).add(w)
        assert by_category == {
            "memory": {"spmv", "pr", "mttkrp_mp", "mttkrp_cp", "cpals"},
            "compute": {"spmspm"},
            "merge": {"spkadd", "tc", "sptc", "spadd"},
        }

    def test_inputs_for(self):
        assert inputs_for("spmv") == ["M1", "M2", "M3", "M4", "M5", "M6"]
        assert inputs_for("sptc") == ["T1", "T2", "T3", "T4"]

    def test_unknown_workload(self, small_machine):
        with pytest.raises(WorkloadError):
            run_workload("nope", "M1", small_machine)

    def test_variant_selection(self, small_machine):
        run = run_workload("spmv", "M6", small_machine, "small",
                           variants=("baseline", "imp"))
        assert run.imp is not None
        assert run.tmu is None

    @pytest.mark.parametrize("workload,input_id,variants", [
        ("cpals", "T1", ("baseline", "imp")),
        ("cpals", "T1", ("baseline", "single_lane")),
        ("spadd", "M1", ("baseline", "tmu")),
    ])
    def test_unproducible_variant_raises(self, small_machine, workload,
                                         input_id, variants):
        with pytest.raises(WorkloadError, match="cannot produce"):
            run_workload(workload, input_id, small_machine, "small",
                         variants=variants)


class TestAsOrder3:
    def test_passthrough_for_3d(self, small_tensor):
        assert as_order3(small_tensor) is small_tensor

    def test_folds_4d(self):
        t = CooTensor((4, 5, 6, 7),
                      [[0, 1], [0, 1], [2, 3], [4, 5]], [1.0, 2.0])
        folded = as_order3(t)
        assert folded.ndim == 3
        assert folded.nnz == 2
        # dense relabeling: extent equals distinct folded coordinates
        assert folded.shape[2] == 2

    def test_rejects_matrices(self):
        t = CooTensor((4, 5), [[0], [0]], [1.0])
        with pytest.raises(WorkloadError):
            as_order3(t)


class TestExperimentDrivers:
    """Smoke the cheap drivers end to end (the heavy ones are exercised
    by the benchmark harness)."""

    def test_table5(self):
        rows = ex.table5_parameters("small")
        rendered = ex.render_table5(rows)
        assert "TMU" in rendered and "HBM2e" in rendered

    def test_table6(self):
        rows = ex.table6_inputs("small")
        assert len(rows) == 10  # 6 matrices + 4 tensors
        rendered = ex.render_table6(rows)
        assert "af_0_k101" in rendered and "Uber" in rendered

    def test_area(self):
        data = ex.area_results()
        assert data["total_mm2"] == pytest.approx(0.0704, rel=1e-6)
        assert "1.52%" in ex.render_area(data)

    def test_fig13_single_workload(self, small_machine):
        run = run_workload("spmv", "M2", small_machine, "small")
        assert run.tmu.read_to_write is not None
        assert 0.05 < run.tmu.read_to_write < 20

    def test_fig15_driver_subset(self, small_machine):
        run = run_workload("spmv", "M2", small_machine, "small",
                           variants=("baseline", "tmu", "single_lane",
                                     "imp"))
        assert run.baseline.cycles >= run.single_lane.cycles * 0.9
        assert run.single_lane.cycles >= run.tmu.cycles


class TestReporting:
    def test_text_table_alignment(self):
        out = text_table(["a", "bb"], [[1, 2.5], ["xx", 3.0]], "T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "2.50" in out and "3.00" in out

    def test_heatmap(self):
        out = heatmap_table(["r1"], ["c1", "c2"],
                            np.array([[1.0, 2.0]]), "H")
        assert "r1" in out and "2.00" in out


class TestCli:
    def test_cli_table5(self, capsys):
        from repro.cli import main

        assert main(["table5", "--no-cache"]) == 0
        assert "Table 5" in capsys.readouterr().out

    def test_cli_area(self, capsys):
        from repro.cli import main

        assert main(["area", "--no-cache"]) == 0
        assert "0.0704" in capsys.readouterr().out

    def test_reset_drops_the_walk_tier_and_cache_model(
            self, tmp_path, monkeypatch, capsys):
        # the default --cache-dir installs a walk disk tier process-wide;
        # a reset must take it down, or every later caller in the
        # process reads and writes walks under the old directory
        from repro import runtime
        from repro.cli import main
        from repro.sim.memsys import uses_reference, walk_cache

        monkeypatch.chdir(tmp_path)
        assert main(["table5"]) == 0
        assert walk_cache().store is not None
        runtime.reset()
        assert walk_cache().store is None
        assert not uses_reference()

    def test_cli_rejects_unknown(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["fig99"])


class TestCliOutput:
    def test_output_directory(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["area", "--no-cache", "--output", str(tmp_path)]) == 0
        written = (tmp_path / "area.txt").read_text()
        assert "0.0704" in written
