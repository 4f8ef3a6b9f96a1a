"""Informational absolute timings via pytest-benchmark.

These are never gated — the ratio tests next door carry the
regression-detection duty.  The whole module is skipped when the
plugin is not installed (CI's tier-1 job, for instance).
"""

from __future__ import annotations

import pytest

pytest.importorskip("pytest_benchmark")

from repro.config import CacheConfig  # noqa: E402
from repro.generators import uniform_random_matrix  # noqa: E402
from repro.kernels import split_rows_cyclic  # noqa: E402
from repro.programs import build_spkadd_program  # noqa: E402
from repro.sim import stackdist  # noqa: E402
from repro.sim.cache import Cache  # noqa: E402
from repro.tmu import TmuEngine  # noqa: E402

from .test_stackdist import WALK_GEOMETRIES, walk_mix  # noqa: E402

#: The walk-shaped stream of the micro gate: a monotone stream would
#: leave ``hit_mask`` through its early exit and time no decision.
LINES = walk_mix()


def test_bench_lookup_fast(benchmark):
    def run():
        for sets, ways in WALK_GEOMETRIES:
            stackdist.hit_mask(LINES, sets, ways)

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_bench_lookup_reference(benchmark):
    def run():
        for sets, ways in WALK_GEOMETRIES:
            Cache(CacheConfig(sets * ways * 64, ways, 1, 4)).lookup_lines(
                LINES)

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_bench_engine_run_spkadd(benchmark):
    matrix = uniform_random_matrix(60, 60, 6, seed=3)
    parts = split_rows_cyclic(matrix, 4)

    def run():
        built = build_spkadd_program(parts)
        TmuEngine(built.program).run(built.handlers)

    benchmark.pedantic(run, rounds=3, iterations=1)
