"""Stack-distance model vs the reference Cache: two-way parity.

The stateless whole-stream pass (:func:`repro.sim.stackdist.hit_mask`)
must produce the *same hit mask on every access* as the golden
reference :class:`~repro.sim.cache.Cache` from a cold start, for any
geometry and any access pattern —
that is the license for the hierarchy walk in :mod:`repro.sim.memsys`
to route its batched cold-start walks through it.

The seeded fuzz rotates with ``REPRO_FUZZ_SEED`` (the CI parity-fuzz
job sets it per run), so coverage compounds across runs while any
failure stays reproducible from the seed in the log.

The second half holds the walk itself to account on every Table 4
kernel baseline: identical ``StreamProfile``s, per-level cache stats,
published ``sim.cache.*`` telemetry, and end-to-end ``run_baseline``
cycle results between the fast and reference model families.
"""

import os
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro import obs
from repro.config import CacheConfig, default_machine
from repro.errors import SimulationError
from repro.formats.convert import coo_to_csf
from repro.generators import uniform_random_matrix, uniform_random_tensor
from repro.kernels import split_rows_cyclic
from repro.kernels.cpals import characterize_cpals
from repro.kernels.mttkrp import characterize_mttkrp
from repro.kernels.pagerank import characterize_pagerank
from repro.kernels.spadd import characterize_spadd
from repro.kernels.spkadd import characterize_spkadd
from repro.kernels.spmspm import characterize_spmspm
from repro.kernels.spmv import characterize_spmv
from repro.kernels.sptc import characterize_sptc
from repro.kernels.triangle import characterize_triangle, lower_triangle
from repro.sim.cache import Cache
from repro.sim.machine import run_baseline
from repro.sim import memsys
from repro.sim.memsys import (
    MemoryHierarchy,
    llc_only_profile,
    walk_cache,
)
from repro.sim.stackdist import hit_mask
from repro.sim.trace import AccessStream, KernelTrace
from tests.cache_model import cache_model

#: rotating fuzz seed: CI sets REPRO_FUZZ_SEED per run so coverage
#: compounds; a failure's log line pins the seed for local replay.
FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0x57ACD157"), 0)

# ------------------------------------------------------------ stream fuzzing


def _stream(rng, kind, n, sets, ways):
    """One adversarial line stream of length ``n``."""
    capacity = sets * ways
    if kind == "uniform":
        return rng.integers(0, 4 * capacity + 1, n)
    if kind == "conflict":
        base = rng.integers(0, sets, 1)[0]
        return base + sets * rng.integers(0, 2 * ways + 1, n)
    if kind == "sequential":
        start = rng.integers(0, capacity, 1)[0]
        return np.arange(start, start + n)
    if kind == "thrash":
        loop = sets * (ways + rng.integers(1, 3, 1)[0])
        return np.arange(n) % loop
    if kind == "reuse":
        ws = rng.integers(1, max(2, capacity), 1)[0]
        return rng.integers(0, ws, n)
    # "burst": runs of repeated lines (consecutive-duplicate heavy)
    reps = rng.integers(1, 6, n)
    vals = rng.integers(0, 2 * capacity + 1, n)
    return np.repeat(vals, reps)[:n]


def _two_way(lines: np.ndarray, sets: int, ways: int) -> None:
    """Assert stackdist == cold Cache on one stream."""
    lines = np.asarray(lines, dtype=np.int64)
    cfg = CacheConfig(sets * ways * 64, ways, 1, 4)
    ref = Cache(cfg).lookup_lines(lines)
    np.testing.assert_array_equal(hit_mask(lines, sets, ways), ref)


class TestFuzzEquivalence:
    def test_randomized_streams(self):
        """720+ randomized cold-start streams across random geometries,
        rotating with REPRO_FUZZ_SEED."""
        rng = np.random.default_rng(FUZZ_SEED)
        kinds = ("uniform", "conflict", "sequential", "thrash", "reuse",
                 "burst")
        streams = 0
        for _rep in range(120):
            sets = int(rng.choice([1, 2, 4, 8, 16, 32, 64]))
            ways = int(rng.integers(1, 17, 1)[0])
            for kind in kinds:
                n = int(rng.integers(1, 500, 1)[0])
                _two_way(_stream(rng, kind, n, sets, ways), sets, ways)
                streams += 1
        assert streams >= 720

    def test_long_streams_exercise_block_table(self):
        """Streams long and query-heavy enough to route through the
        block distinct-count screen and the chunked lockstep scan."""
        rng = np.random.default_rng(FUZZ_SEED ^ 0xA2C402ED)
        for sets, ways in ((64, 8), (256, 16), (16, 12)):
            capacity = sets * ways
            for kind in ("uniform", "thrash", "reuse"):
                lines = _stream(rng, kind, 60_000, sets, ways)
                _two_way(lines, sets, ways)
            # wrap-around loop at 2x capacity: every access's window
            # spans half the stream — worst case for the screens
            _two_way(np.arange(60_000) % (2 * capacity), sets, ways)

    def test_monotonic_early_exit_is_exact(self):
        """Strictly monotonic streams take the all-cold-miss early
        exit; the shortcut must agree with the reference model, and
        near-monotonic streams (one repeat) must not take it."""
        for lines in (np.arange(5000), np.arange(5000)[::-1].copy(),
                      np.arange(0, 15000, 3)):
            _two_way(lines, 64, 8)
            assert not hit_mask(np.asarray(lines), 64, 8).any()
        nearly = np.arange(5000)
        nearly[2500] = nearly[2499]  # one plateau: exit must not fire
        _two_way(nearly, 64, 8)
        assert hit_mask(nearly, 64, 8).sum() == 1

    def test_single_access_and_empty(self):
        assert hit_mask(np.zeros(0, dtype=np.int64), 4, 2).size == 0
        _two_way(np.array([7]), 4, 2)
        _two_way(np.array([7, 7]), 4, 2)

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(SimulationError):
            hit_mask(np.arange(10), 3, 2)

    def test_direct_mapped_and_single_set(self):
        rng = np.random.default_rng(FUZZ_SEED ^ 0xD19E57)
        _two_way(rng.integers(0, 64, 4000), 16, 1)  # direct-mapped
        _two_way(rng.integers(0, 64, 4000), 1, 16)  # fully assoc.


# ---------------------------------------------- Table 4 kernel walk parity


def _kernel_traces() -> dict:
    """Baseline KernelTraces of the Table 4 kernels on small inputs."""
    machine = default_machine()
    matrix = uniform_random_matrix(40, 40, 5, seed=13)
    coo = uniform_random_tensor((10, 9, 8), 150, seed=6)
    return {
        "spmv": lambda: characterize_spmv(matrix, machine),
        "spmspm": lambda: characterize_spmspm(
            matrix, matrix.transpose(), machine),
        "spadd": lambda: characterize_spadd(
            matrix, matrix.transpose(), machine),
        "spkadd": lambda: characterize_spkadd(
            split_rows_cyclic(matrix, 4), machine),
        "pagerank": lambda: characterize_pagerank(matrix, machine),
        "triangle": lambda: characterize_triangle(
            lower_triangle(uniform_random_matrix(50, 50, 6, seed=21)),
            machine),
        "mttkrp": lambda: characterize_mttkrp(coo, 4, machine),
        "cpals": lambda: characterize_cpals(coo, 4, machine),
        "sptc": lambda: characterize_sptc(
            coo_to_csf(coo),
            coo_to_csf(uniform_random_tensor((8, 9, 10), 150, seed=8)),
            machine),
    }


def _cache_counters(registry) -> dict:
    body = registry.as_dict()
    return {name: data for name, data in body.get("counters", {}).items()
            if name.startswith("sim.cache.")}


@pytest.mark.parametrize("kernel", sorted(_kernel_traces()))
def test_walk_parity_on_kernel(kernel):
    """Fast-model hierarchy walks (stack-distance) must match the
    reference walk on every Table 4 kernel baseline: StreamProfiles,
    per-level stats, published telemetry, and end-to-end cycles."""
    trace = _kernel_traces()[kernel]()
    machine = default_machine()

    results = {}
    for tag in ("fast", "reference"):
        walk_cache().clear()
        h = MemoryHierarchy(machine)
        with cache_model(tag), obs.capture() as registry:
            profile = h.profile(trace)
            llc = llc_only_profile(machine, trace.streams)
        results[tag] = {
            "profiles": [asdict(sp) for sp in profile.streams],
            "llc": [asdict(sp) for sp in llc.streams],
            "stats": [(c.stats.accesses, c.stats.hits)
                      for c in (h.l1, h.l2, h.llc)],
            "telemetry": _cache_counters(registry),
        }
    assert results["fast"] == results["reference"]

    # end-to-end: identical cycle results from both model families
    walk_cache().clear()
    base_fast = run_baseline(trace, machine)
    walk_cache().clear()
    with cache_model("reference"):
        base_ref = run_baseline(trace, machine)
    assert base_fast.cycles == base_ref.cycles
    assert asdict(base_fast.breakdown) == asdict(base_ref.breakdown)


def test_fuzzed_traces_walk_parity():
    """Randomized multi-stream traces through the full hierarchy walk:
    fast and reference machines agree on every profile field."""
    rng = np.random.default_rng(FUZZ_SEED ^ 0xC0FFEE)
    for _rep in range(10):
        streams = []
        for i in range(int(rng.integers(1, 5, 1)[0])):
            n = int(rng.integers(1, 4000, 1)[0])
            kind = "write" if rng.random() < 0.25 else "read"
            addrs = rng.integers(0, 1 << 22, n) * 8
            streams.append(AccessStream(addresses=addrs, elem_bytes=8,
                                        kind=kind, label=f"s{i}",
                                        dependent=bool(rng.random() < .5),
                                        gather=bool(rng.random() < .3)))
        trace = KernelTrace(name="fuzz", streams=streams)
        machine = default_machine()
        walk_cache().clear()
        pf = MemoryHierarchy(machine).profile(trace)
        walk_cache().clear()
        with cache_model("reference"):
            pr = MemoryHierarchy(machine).profile(trace)
        assert [asdict(a) for a in pf.streams] == \
               [asdict(b) for b in pr.streams]


def _geometry(rng, line_bytes=64) -> CacheConfig:
    sets = int(rng.choice([1, 2, 4, 8, 16, 32]))
    ways = int(rng.integers(1, 17, 1)[0])
    return CacheConfig(sets * ways * line_bytes, ways,
                       int(rng.integers(1, 40, 1)[0]),
                       int(rng.integers(1, 64, 1)[0]), line_bytes)


def _walk_state(machine, trace, window):
    """One hierarchy walk under sample window ``window`` (``None``:
    unsampled): profiles, per-level stats and published counters."""
    h = MemoryHierarchy(machine)
    with pytest.MonkeyPatch.context() as mp, obs.capture() as registry:
        mp.setattr(memsys, "SAMPLE_WINDOW", window)
        profile = h.profile(trace)
    return ([asdict(sp) for sp in profile.streams],
            [(c.stats.accesses, c.stats.hits) for c in (h.l1, h.l2, h.llc)],
            _cache_counters(registry))


def test_fuzzed_first_level_reuse():
    """Random streams through hierarchy pairs that share the L1
    geometry and differ below it: the second walk reuses the first's
    L1 outcome, and must agree with a fresh walk and the reference
    walk on profiles, per-level stats and published counters."""
    rng = np.random.default_rng(FUZZ_SEED ^ 0xF125D1)
    for _rep in range(12):
        streams = []
        for i in range(int(rng.integers(1, 5, 1)[0])):
            n = int(rng.integers(1, 3000, 1)[0])
            addrs = rng.integers(0, 1 << int(rng.integers(10, 22)), n) * 8
            streams.append(AccessStream(addresses=addrs, elem_bytes=8,
                                        label=f"s{i}",
                                        dependent=bool(rng.random() < .5)))
        trace = KernelTrace(name="fuzz", streams=streams)
        l1 = _geometry(rng)
        first, second = (
            replace(default_machine(),
                    l1d=replace(l1, latency=int(rng.integers(1, 9)),
                                mshrs=int(rng.integers(1, 33))),
                    l2=_geometry(rng), llc=_geometry(rng))
            for _ in range(2))
        if (first.l2, first.llc) == (second.l2, second.llc):
            continue
        window = None if rng.random() < 0.5 else int(rng.integers(50, 2000))
        walk_cache().clear()
        _walk_state(first, trace, window)
        reused = walk_cache().first_level_hits
        reuse = _walk_state(second, trace, window)
        assert walk_cache().first_level_hits == reused + 1
        walk_cache().clear()
        fresh = _walk_state(second, trace, window)
        walk_cache().clear()
        with cache_model("reference"):
            reference = _walk_state(second, trace, window)
        assert reuse == fresh == reference, FUZZ_SEED
