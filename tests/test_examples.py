"""Smoke tests: every shipped example runs to completion.

The examples double as integration tests of the public API — each one
asserts its own correctness internally, so a zero exit status means the
walkthrough's claims hold.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"

ALL_EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def test_every_example_is_covered():
    assert set(ALL_EXAMPLES) == {
        "quickstart.py",
        "spmv_acceleration.py",
        "kway_merge_spkadd.py",
        "tensor_decomposition.py",
        "custom_kernel.py",
        "roofline_report.py",
        "einsum_compiler.py",
        "trace_spmv.py",
        "submit_sweep.py",
        "query_trajectory.py",
        "watch_service.py",
    }


@pytest.mark.parametrize("example", ALL_EXAMPLES)
def test_example_runs(example):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / example)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), f"{example} printed nothing"
