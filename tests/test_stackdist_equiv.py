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
from repro.sim import memsys, stackdist
from repro.sim.memsys import (
    MemoryHierarchy,
    llc_only_profile,
    walk_cache,
)
from repro.sim.stackdist import hit_mask
from repro.sim.trace import AccessStream, KernelTrace
from repro.types import _packed_dtype
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

    @pytest.mark.parametrize("span_bits,dtype", [(20, np.int32),
                                                  (21, np.int64)])
    def test_relative_pack_on_both_sides_of_int32(self, span_bits, dtype):
        """The link sort packs each line relative to the stream's
        smallest: 1025 accesses take 11 position bits, so a span of 20
        bits packs into int32 (31 bits) and one of 21 into int64 (32),
        wherever the stream lies.  Both sides match the reference."""
        rng = np.random.default_rng(FUZZ_SEED ^ 0x3132)
        n, span = 1025, (1 << span_bits) - 1
        assert _packed_dtype(span + 1, n) == (dtype, 11)
        low = 5 << 40
        pool = low + np.concatenate(
            [[0, span], rng.integers(0, span + 1, 40)])
        for sets, ways in ((1, 4), (4, 2), (64, 8)):
            lines = rng.choice(pool, n)
            lines[:2] = pool[:2]
            assert lines.max() - lines.min() == span
            _two_way(lines, sets, ways)

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


#: The walk's small-scale geometries (sets, ways): its L1, L2 and LLC.
WALK_GEOMETRIES = ((4, 4), (4, 8), (32, 16))


def _block(ways: int) -> int:
    """Block size ``B`` of the stack-distance pass; its rows are 2B."""
    return 1 << max(3, (2 * ways - 1).bit_length())


def _set_lines(set_idx: int, sets: int, tags) -> np.ndarray:
    """Lines of one set: ``tags`` placed in set ``set_idx``."""
    return set_idx + sets * np.asarray(tags, dtype=np.int64)


def _window(gap: int, distinct: int) -> list[int]:
    """Tag 0, then ``gap - 1`` accesses over exactly ``distinct`` other
    tags, then tag 0 again: the last access's window has that gap and
    that distinct count."""
    fill = [1 + i % distinct for i in range(gap - 1)]
    return [0, *fill, 0]


class TestRowScanEdges:
    """Windows at the row scan's boundaries, each checked against the
    reference Cache, on the walk's geometries."""

    @pytest.mark.parametrize("sets,ways", WALK_GEOMETRIES)
    def test_gap_boundaries(self, sets, ways):
        """Gaps of exactly ways+1 (the first window the positional
        screen leaves), 2B (the widest one-row window) and 2B+1 (the
        narrowest block-screened one), just under and at ``ways``
        distinct lines, behind other sets' traffic."""
        rng = np.random.default_rng(FUZZ_SEED ^ 0xB0B)
        width = 2 * _block(ways)
        for gap in (ways + 1, width, width + 1):
            for distinct in (ways - 1, ways):
                target = _set_lines(sets - 1, sets,
                                    np.array(_window(gap, distinct)) + 7)
                noise = rng.integers(0, 8 * sets * ways, 3 * gap)
                noise = noise[(noise & (sets - 1)) != sets - 1]
                lines = np.concatenate([noise, target])
                _two_way(lines, sets, ways)
                assert hit_mask(lines, sets, ways)[-1] == (distinct < ways)

    @pytest.mark.parametrize("sets,ways", WALK_GEOMETRIES)
    def test_windows_at_both_ends_of_the_stream(self, sets, ways):
        """Windows ending in the last 2B packed positions, and windows
        so close to the start that their row reaches before position 0
        into the sentinel padding."""
        rng = np.random.default_rng(FUZZ_SEED ^ 0xE1D5)
        width = 2 * _block(ways)
        for gap in range(ways + 1, width + 1):
            for distinct in {ways - 1, ways, gap - 1}:
                head = _set_lines(0, sets, _window(gap, distinct))
                tail = _set_lines(sets - 1, sets, _window(gap, distinct))
                middle = rng.integers(0, 4 * sets * ways, 2 * width)
                lines = np.concatenate([head, middle, tail])
                _two_way(lines, sets, ways)

    @pytest.mark.parametrize("sets,ways", WALK_GEOMETRIES)
    def test_streams_shorter_than_one_row(self, sets, ways):
        rng = np.random.default_rng(FUZZ_SEED ^ 0x5407)
        width = 2 * _block(ways)
        for n in range(2, width):
            for span in (ways + 1, 2 * ways, 4 * sets * ways):
                _two_way(rng.integers(0, span, n), sets, ways)
            _two_way(_set_lines(0, sets, rng.integers(0, 2 * ways, n)),
                     sets, ways)

    @pytest.mark.parametrize("sets,ways", WALK_GEOMETRIES)
    def test_duplicate_heavy_window_takes_the_exact_fallback(self, sets,
                                                             ways):
        """``A, (B C)x20000, A`` in one set: two distinct lines in a
        window far longer than the rows the scan reads before falling
        back to the exact count.  With ``ways - 3`` more lines at the
        window's far end and one at its near end, the fallback must
        count both ends to find the miss."""
        reps = 20_000
        assert 2 * reps > stackdist._MAX_STEPS * 2 * _block(ways)
        pairs = [1, 2] * reps
        far = list(range(3, ways))  # with B, C and `near`: ways lines
        near = ways + 1
        hit = _set_lines(1 % sets, sets, [0, *pairs, 0])
        miss = _set_lines(1 % sets, sets, [0, *far, *pairs, near, 0])
        for lines, expect in ((hit, True), (miss, False)):
            _two_way(lines, sets, ways)
            assert hit_mask(lines, sets, ways)[-1] == expect

    @pytest.mark.parametrize("sets,ways", [(1, 1), (4, 1), (64, 1),
                                           (1, 4), (1, 8), (1, 16),
                                           (1, 40), (2, 128)])
    def test_one_way_and_one_set(self, sets, ways):
        """Direct-mapped and single-set caches, and associativities
        whose rows run past 248 entries (several word groups per row
        count)."""
        rng = np.random.default_rng(FUZZ_SEED ^ 0x1E57)
        capacity = sets * ways
        for n in (3, 300, 5000):
            for span in (2, capacity + 1, 3 * capacity + 2):
                _two_way(rng.integers(0, span, n), sets, ways)
        loop = np.arange(3000) % (capacity + sets)
        _two_way(loop, sets, ways)


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
            streams.append(AccessStream(index=addrs, elem_bytes=8,
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


def test_walk_attributes_hits_around_an_empty_stream():
    """Per-stream hits at every level, read off the concatenated walk,
    equal a per-stream replay through reference caches, with an empty
    stream between two non-empty ones."""
    rng = np.random.default_rng(FUZZ_SEED ^ 0xE3B7)
    machine = default_machine()
    streams = [
        AccessStream(index=rng.integers(0, 1 << 14, n) * 8,
                     elem_bytes=8, label=label)
        for label, n in (("a", 3000), ("empty", 0), ("b", 2000))]
    walk_cache().clear()
    profiles = MemoryHierarchy(machine).profile(
        KernelTrace(name="gap", streams=streams)).streams

    levels = [Cache(c) for c in (machine.l1d, machine.l2, machine.llc)]
    traffic = [memsys.prepare_lines(s, machine.l1d.line_bytes)[0]
               for s in streams]
    expected = {f: [] for f in ("l1_hits", "l2_hits", "llc_hits")}
    for field, cache in zip(expected, levels):
        passed = []
        for lines in traffic:
            hit = cache.lookup_lines(lines)
            expected[field].append(int(hit.sum()))
            passed.append(lines[~hit])
        traffic = passed
    assert profiles[1].accesses == 0
    for field, per_stream in expected.items():
        assert [getattr(sp, field) for sp in profiles] == per_stream
    assert [sp.mem_accesses for sp in profiles] == \
        [lines.size for lines in traffic]


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
            streams.append(AccessStream(index=addrs, elem_bytes=8,
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


# ------------------------------------------------- line-disjoint stream runs


def _run_streams(rng) -> list[np.ndarray]:
    """The line sequences of one multi-stream walk for the run split:
    streams in regions of their own, strictly increasing and strictly
    decreasing ones, empty ones, an increasing stream and one that
    starts on the line it ended on, a stream that re-reads an earlier one's
    lines with a disjoint stream between them, and a stream whose lines
    repeat at L1 but whose L1 misses rise strictly at L2."""
    region = iter(rng.permutation(64) << 20)
    streams = []
    for _ in range(int(rng.integers(4, 9))):
        kind = rng.choice(["random", "increasing", "decreasing", "empty",
                           "resume", "reread", "stepback"])
        n = int(rng.integers(1, 1500))
        lo = next(region)
        if kind == "random":
            lines = lo + rng.integers(0, int(rng.integers(2, 4000)), n)
        elif kind in ("increasing", "decreasing"):
            lines = lo + np.cumsum(rng.integers(1, 4, n))
            if kind == "decreasing":
                lines = lines[::-1]
        elif kind == "empty":
            lines = np.zeros(0, dtype=np.int64)
        elif kind == "resume":
            # an increasing stream, then one that starts on the line it
            # ended on and rises: the pair only rises without that line
            streams.append(lo + np.cumsum(rng.integers(1, 4, n)))
            lines = streams[-1][-1] + np.cumsum(rng.integers(0, 3, n))
            lines[0] = streams[-1][-1]
        elif kind == "reread" and any(s.size for s in streams):
            source = [s for s in streams if s.size]
            earlier = source[int(rng.integers(len(source)))]
            streams.append(lo + rng.integers(0, 50, int(rng.integers(1, 99))))
            lines = rng.choice(earlier, n)
        else:  # stepback: 0, 1, 0, 2, 1, 3, 2, ... above the region base
            steps = np.arange(1, n + 1)
            lines = lo + np.concatenate(
                [[0], np.stack([steps, steps - 1], axis=1).ravel()])
        streams.append(np.asarray(lines, dtype=np.int64))
    return streams


def test_fuzzed_runs_walk_parity(monkeypatch):
    """Multi-stream walks whose streams group into line-disjoint runs:
    the run-by-run walk (increasing runs skipped) gives the reference
    walk's per-stream profiles, per-level stats and published counters,
    through the hierarchy and the LLC-only walk, sampled or whole."""
    rng = np.random.default_rng(FUZZ_SEED ^ 0x5EB5)
    for _rep in range(16):
        streams = [
            AccessStream(index=lines * 64 + 8 * rng.integers(0, 8),
                         elem_bytes=8, label=f"s{i}",
                         kind="write" if rng.random() < 0.25 else "read",
                         dependent=bool(rng.random() < 0.5))
            for i, lines in enumerate(_run_streams(rng))]
        trace = KernelTrace(name="runs", streams=streams)
        machine = replace(default_machine(), l1d=_geometry(rng),
                          l2=_geometry(rng), llc=_geometry(rng))
        window = None if rng.random() < 0.5 else int(rng.integers(50, 2000))
        monkeypatch.setattr(memsys, "SAMPLE_WINDOW", window)
        states = []
        for tag in ("fast", "reference"):
            walk_cache().clear()
            with cache_model(tag):
                hierarchy = _walk_state(machine, trace, window)
                llc = [asdict(sp) for sp in
                       llc_only_profile(machine, streams).streams]
            states.append((hierarchy, llc))
        assert states[0] == states[1], FUZZ_SEED
