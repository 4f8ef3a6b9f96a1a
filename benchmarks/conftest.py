"""Benchmark harness configuration.

Each benchmark regenerates one table or figure of the paper at the
``small`` scale, asserts the qualitative *shape* the paper reports
(who wins, by roughly what factor, where the crossovers fall), and
writes the rendered artifact to ``benchmarks/results/``.

Run with::

    pytest benchmarks/ --benchmark-only

The session also captures :mod:`repro.obs` telemetry and appends a perf
snapshot to the repo's trajectory (``BENCH_<rev>.json`` at the repo
root) when it finishes; set ``REPRO_BENCH_SNAPSHOT=0`` to skip, or
``REPRO_BENCH_DIR`` to redirect the snapshot.  The session's result
cache lives in a fresh temp dir.  ``repro ingest BENCH_<rev>.json
--store DB`` files the snapshot in an experiment database.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def scale() -> str:
    return "small"


@pytest.fixture(scope="session", autouse=True)
def telemetry_session():
    """Record simulator telemetry for the whole benchmark session and
    extend the perf trajectory on exit.

    The snapshot is filed under ``BENCH_<rev>.json``; when ``git`` is
    unavailable the rev falls back to ``unknown``, and a modified
    worktree gets a ``-dirty`` suffix so a perf point is never
    misattributed to a clean commit.
    """
    from repro import obs

    if os.environ.get("REPRO_BENCH_SNAPSHOT", "1") == "0":
        yield None
        return
    registry = obs.enable()
    yield registry
    snap = obs.snapshot(meta={"suite": "benchmarks", "scale": "small",
                              "rev": obs.bench_rev()})
    obs.disable()
    out_dir = Path(os.environ.get("REPRO_BENCH_DIR", REPO_ROOT))
    path = obs.write_bench_snapshot(snap, out_dir)
    print(f"\nperf trajectory snapshot: {path}")


@pytest.fixture(scope="session", autouse=True)
def runtime_cache(tmp_path_factory):
    """One shared on-disk result cache for the whole benchmark session.

    Every figure driver submits its cells through the active
    :mod:`repro.runtime`, so benchmarks that revisit the same
    (workload, input, machine) cells — Fig. 10/11/12/13 share a full
    sweep — are served from this cache instead of re-simulating.
    """
    from repro import runtime

    cache_dir = tmp_path_factory.mktemp("repro-runtime-cache")
    rt = runtime.configure(jobs=1, cache_dir=cache_dir)
    yield rt.cache
    runtime.reset()


def save_artifact(results_dir: Path, name: str, text: str) -> None:
    (results_dir / name).write_text(text + "\n", encoding="utf-8")
