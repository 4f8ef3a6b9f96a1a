"""The two-tier persistent walk cache: correctness under eviction,
disk round-trips, weakly held entries, and telemetry.

The memory tier's LRU eviction replaced a wholesale ``clear()`` at
capacity; the regression tests here prove an eviction (or a full
churn past capacity) never changes any profile — an evicted walk is
recomputed, bit-identically, because the walk is a pure function of
geometry and stream content.

Both in-memory memos hold their streams weakly, so an entry dies with
its streams.  Tests that count evictions keep their streams alive:
otherwise an entry would die before the bound ever evicts it.
"""

import gc
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import pytest

from repro import obs, runtime
from repro.config import (
    CACHE_SCALE_DIVISOR,
    MachineConfig,
    a64fx_like,
    experiment_machine,
    graviton3_like,
    scale_caches,
)
from repro.eval.experiments import FIG14_SVE_BITS, FIG14_STORAGE_KB
from repro.generators import uniform_random_matrix
from repro.kernels.spmspm import characterize_spmspm
from repro.kernels.spmv import characterize_spmv
from repro.runtime import machine_to_dict
from repro.runtime.cache import WalkStore
from repro.sim import memsys
from repro.sim.memsys import (
    FIRST_LEVEL_ENTRIES,
    MemoryHierarchy,
    WalkCache,
    _decode_walk,
    _encode_walk,
    _walk_digest,
    configure_walk_store,
    llc_only_profile,
    walk_cache,
)
from repro.sim.trace import AccessStream, KernelTrace, Ranges
from tests.cache_model import cache_model


def _trace(seed: int, n: int = 3000) -> KernelTrace:
    rng = np.random.default_rng(seed)
    return KernelTrace(name=f"t{seed}", streams=[
        AccessStream(index=rng.integers(0, 1 << 20, n) * 8,
                     elem_bytes=8, label="a"),
        AccessStream(index=np.arange(n) * 8, elem_bytes=8,
                     kind="write", label="b"),
    ])


def _profiles(trace: KernelTrace, machine: MachineConfig) -> list[dict]:
    return [asdict(sp)
            for sp in MemoryHierarchy(machine).profile(trace).streams]


@pytest.fixture(autouse=True)
def _isolated_walk_cache():
    """Each test gets a cleared process cache with no disk tier."""
    wc = walk_cache()
    saved_store = wc.store
    wc.clear()
    wc.store = None
    wc.hits = wc.disk_hits = wc.misses = wc.evictions = 0
    wc.first_level_hits = 0
    try:
        yield wc
    finally:
        wc.clear()
        wc.store = saved_store


class TestMemoryTierLRU:
    def test_eviction_never_changes_results(self, _isolated_walk_cache,
                                            monkeypatch):
        """Regression for the old clear-all behaviour: churn 3x the
        capacity through the cache, then recompute everything — every
        profile must match its pre-eviction value even though the early
        entries were evicted and re-simulated."""
        wc = _isolated_walk_cache
        monkeypatch.setattr(wc._memory, "maxsize", 4)
        machine = MachineConfig()
        traces = [_trace(seed, n=800) for seed in range(12)]
        first = [_profiles(t, machine) for t in traces]
        assert len(wc) <= 4
        assert wc.evictions > 0
        second = [_profiles(t, machine) for t in traces]
        assert first == second

    def test_lru_keeps_recently_used(self, _isolated_walk_cache,
                                     monkeypatch):
        wc = _isolated_walk_cache
        monkeypatch.setattr(wc._memory, "maxsize", 3)
        machine = MachineConfig()
        hot = _trace(0, n=500)
        cold = [_trace(seed, n=500) for seed in range(1, 4)]
        _profiles(hot, machine)
        for trace in cold[:2]:
            _profiles(trace, machine)
            _profiles(hot, machine)  # keep hot at the MRU end
        hits_before = wc.hits
        _profiles(cold[2], machine)  # evicts an LRU entry
        assert wc.evictions == 1
        _profiles(hot, machine)
        assert wc.hits > hits_before  # hot survived the eviction

    def test_memory_hit_shares_immutable_profiles(self,
                                                  _isolated_walk_cache):
        """A memory-tier hit hands out the stored profiles themselves,
        so no caller may change one in place."""
        wc = _isolated_walk_cache
        machine = MachineConfig()
        trace = _trace(0, n=500)
        first = MemoryHierarchy(machine).profile(trace).streams
        hits = wc.hits
        again = MemoryHierarchy(machine).profile(trace).streams
        assert wc.hits == hits + 1
        assert again == first
        with pytest.raises(FrozenInstanceError):
            again[0].accesses = 0

    def test_fingerprint_collision_is_verified(self, _isolated_walk_cache):
        """One caller key, several streams: a stream never receives
        another stream's value, whatever their contents."""
        wc = _isolated_walk_cache
        a = [AccessStream(index=np.arange(10) * 64, elem_bytes=8)]
        b = [AccessStream(index=np.arange(10)[::-1].copy() * 64,
                          elem_bytes=8)]
        twin = [AccessStream(index=np.arange(10) * 64, elem_bytes=8)]
        wc.put(("k",), a, (["va"], [(1, 1)]))
        assert wc.lookup(("k",), a) is not None
        assert wc.lookup(("k",), b) is None
        # equal content in another array is not the stored stream
        assert wc.lookup(("k",), twin) is None
        # both variants live under the same caller key afterwards
        wc.put(("k",), b, (["vb"], [(2, 2)]))
        assert wc.lookup(("k",), a)[0] == ["va"]
        assert wc.lookup(("k",), b)[0] == ["vb"]

    def test_capacity_bounds_walks_not_keys(self, _isolated_walk_cache,
                                            monkeypatch):
        """Walks that share a geometry key are separate entries, one per
        stream identity; the bound must count those entries, or one key
        grows without limit.  The streams stay alive, so every entry
        beyond the bound leaves by eviction."""
        wc = _isolated_walk_cache
        monkeypatch.setattr(wc._memory, "maxsize", 8)
        machine = MachineConfig()
        base = np.arange(64) * 64
        held = []
        for i in range(50):
            addrs = base.copy()
            addrs[1] = (1000 + i) * 64
            stream = AccessStream(index=addrs, elem_bytes=8, label="a")
            held.append(stream)
            _profiles(KernelTrace(name="t", streams=[stream]), machine)
            assert len(wc) <= 8
        assert len(wc) == 8
        assert wc.evictions == 50 - 8


class TestDiskTier:
    def test_round_trip_and_promotion(self, tmp_path,
                                      _isolated_walk_cache):
        wc = _isolated_walk_cache
        wc.store = WalkStore(tmp_path / "walks")
        machine = MachineConfig()
        trace = _trace(1)
        first = _profiles(trace, machine)
        assert len(wc.store) > 0
        # fresh process: memory tier gone, disk tier intact
        wc.clear()
        wc.hits = wc.disk_hits = wc.misses = 0
        assert _profiles(trace, machine) == first
        assert wc.disk_hits == 1 and wc.misses == 0
        # promoted: the next lookup hits memory
        assert _profiles(trace, machine) == first
        assert wc.hits >= 1

    def test_warm_session_hit_rate_above_90pct(self, tmp_path,
                                               _isolated_walk_cache):
        """The acceptance demo: a second session over the same sweep
        (memory tier cold, disk tier warm) must show > 90% walk-cache
        hit rate in the published telemetry."""
        wc = _isolated_walk_cache
        wc.store = WalkStore(tmp_path / "walks")
        machine = MachineConfig()
        traces = [_trace(seed, n=600) for seed in range(12)]
        for t in traces:
            _profiles(t, machine)
            llc_only_profile(machine, t.streams)
        wc.clear()
        wc.hits = wc.disk_hits = wc.misses = 0
        with obs.capture() as registry:
            for t in traces:
                _profiles(t, machine)
                llc_only_profile(machine, t.streams)
        lookups = wc.hits + wc.disk_hits + wc.misses
        assert (wc.hits + wc.disk_hits) / lookups > 0.9
        gauges = registry.as_dict()["gauges"]
        assert gauges["sim.memsys.walk_cache.hit_rate"]["value"] > 0.9

    def test_corrupt_record_degrades_to_miss(self, tmp_path,
                                             _isolated_walk_cache):
        wc = _isolated_walk_cache
        wc.store = WalkStore(tmp_path / "walks")
        machine = MachineConfig()
        trace = _trace(2)
        first = _profiles(trace, machine)
        for path in wc.store.root.glob("*.json"):
            path.write_text("{not json", encoding="utf-8")
        wc.clear()
        assert _profiles(trace, machine) == first  # re-simulated
        assert wc.disk_hits == 0

    def test_schema_mismatch_misses(self, tmp_path):
        store = WalkStore(tmp_path / "walks")
        digest = "ab" * 32
        store.save(digest, {"schema": "repro.walk/0", "profiles": [],
                            "levels": []})
        payload, _ = store.load(digest)
        assert _decode_walk(payload) is None

    def test_encode_decode_round_trip(self):
        from repro.sim.memsys import StreamProfile

        value = ([StreamProfile(label="x", kind="read", dependent=False,
                                accesses=10, l1_hits=4)],
                 [(10, 4), (6, 2), (4, 1)])
        decoded = _decode_walk(
            json.loads(json.dumps(_encode_walk(value))))
        assert decoded == value

    def test_records_are_built_like_asdict(self):
        """The field-wise machine dict and walk-record profiles equal
        ``dataclasses.asdict`` key for key, in its key order, on every
        machine a figure sweeps: so content hashes and walk-record
        bytes are what ``asdict`` gave."""
        divisor = CACHE_SCALE_DIVISOR["small"]
        base = experiment_machine("small")
        machines = [
            experiment_machine("small"), experiment_machine("medium"),
            scale_caches(a64fx_like(), divisor),
            scale_caches(graviton3_like(), divisor),
            *(base.with_core(vector_bits=bits).with_tmu(
                lanes=bits // 64,
                per_lane_storage_bytes=kb * 1024 // (bits // 64))
              for kb in FIG14_STORAGE_KB for bits in FIG14_SVE_BITS)]
        trace = _trace(5, 500)
        for machine in machines:
            expected = asdict(machine)
            data = machine_to_dict(machine)
            assert data == expected
            assert list(data) == list(expected)
            assert [list(data[k]) for k in data
                    if isinstance(data[k], dict)] == [
                list(expected[k]) for k in expected
                if isinstance(expected[k], dict)]
            profiles = MemoryHierarchy(machine).profile(trace).streams
            encoded = _encode_walk((profiles, [(1, 0)]))["profiles"]
            assert encoded == [asdict(sp) for sp in profiles]
            assert [list(p) for p in encoded] == [
                list(asdict(sp)) for sp in profiles]

    def test_digest_sensitive_to_content(self):
        a = [AccessStream(index=np.arange(100) * 64, elem_bytes=8)]
        b = [AccessStream(index=np.arange(100) * 64 + 64,
                          elem_bytes=8)]
        assert _walk_digest(("k",), a) != _walk_digest(("k",), b)
        assert _walk_digest(("k",), a) != _walk_digest(("k2",), a)
        assert _walk_digest(("k",), a) == _walk_digest(("k",), [
            AccessStream(index=np.arange(100) * 64, elem_bytes=8)])

    def test_gc_reclaims_corrupt_and_temp(self, tmp_path):
        store = WalkStore(tmp_path / "walks")
        store.save("aa" * 32, {"schema": "repro.walk/1", "profiles": [],
                               "levels": []})
        (store.root / "bb.json").write_text("{", encoding="utf-8")
        (store.root / "cc.json.tmp.1.2").write_text("", encoding="utf-8")
        assert store.gc() == 2
        assert len(store) == 1


class TestStreamDigest:
    """The disk tier's content digest lives on the stream: computed on
    first disk-tier use, once per stream, and never with the tier off."""

    @pytest.fixture
    def sha256_calls(self, monkeypatch):
        """Counts the sha256 objects ``AccessStream.digest`` creates."""
        import hashlib
        import types

        from repro.sim import trace as trace_mod

        calls = []

        def counted(*args):
            calls.append(1)
            return hashlib.sha256(*args)

        monkeypatch.setattr(trace_mod, "hashlib",
                            types.SimpleNamespace(sha256=counted))
        return calls

    def test_equals_sha256_over_dtype_and_raw_bytes(self):
        """The digest hashes the base, stride, element size, index form
        and each index array's dtype and raw bytes, and nothing else."""
        import hashlib

        def expect(form, base, stride, elem_bytes, arrays):
            raws = [np.ascontiguousarray(a) for a in arrays]
            h = hashlib.sha256(repr((
                form, base, stride, elem_bytes,
                [(str(r.dtype), r.size) for r in raws])).encode())
            for r in raws:
                h.update(r.data)
            return h.hexdigest()

        positions = np.arange(300, dtype=np.int64) * 3
        for index in (positions, positions[::3],  # contiguous and strided
                      positions.astype(np.int32)):
            stream = AccessStream(index=index, elem_bytes=8, base=64,
                                  stride=8)
            assert stream.digest() == expect("ndarray", 64, 8, 8, [index])
        ranges = Ranges([4, 0], [3, 5])
        stream = AccessStream(index=ranges, elem_bytes=4, base=128, stride=4)
        assert stream.digest() == expect(
            "Ranges", 128, 4, 4, [ranges.starts, ranges.lengths])
        # each of base, stride, element size and form moves it
        digests = {
            AccessStream(index=index, elem_bytes=eb, base=b, stride=st
                         ).digest()
            for index, eb, b, st in (
                (positions, 8, 0, 8), (positions, 8, 64, 8),
                (positions, 8, 0, 16), (positions, 4, 0, 8),
                (Ranges.span(300), 8, 0, 8))}
        assert len(digests) == 5

    def test_once_per_stream_across_both_walks(self, tmp_path,
                                               _isolated_walk_cache,
                                               sha256_calls):
        wc = _isolated_walk_cache
        wc.store = WalkStore(tmp_path / "walks")
        machine = experiment_machine("small")
        trace = _trace(5)
        _profiles(trace, machine)
        llc_only_profile(machine, trace.streams)
        # both walks missed and stored: their four walk digests read
        # every stream's digest, and only the first read hashes
        assert wc.misses == 2 and len(wc.store) == 2
        assert len(sha256_calls) == len(trace.streams)

    def test_digested_addresses_refuse_writes(self):
        stream = AccessStream(index=np.arange(64) * 8, elem_bytes=8)
        stream.index[0] = 1  # writable until digested
        stream.digest()
        with pytest.raises(ValueError):
            stream.index[0] = 2
        ranges = AccessStream(index=Ranges([0, 9], [4, 4]), elem_bytes=8)
        ranges.digest()
        for array in ranges.index_arrays():
            with pytest.raises(ValueError):
                array[0] = 2
        # materialized addresses are a read-only copy
        with pytest.raises(ValueError):
            ranges.addresses[0] = 2

    def test_no_digest_with_the_tier_off(self, _isolated_walk_cache,
                                         sha256_calls):
        assert _isolated_walk_cache.store is None
        machine = experiment_machine("small")
        trace = _trace(6)
        _profiles(trace, machine)
        llc_only_profile(machine, trace.streams)
        assert sha256_calls == []
        # read-only because the memory tier holds them, not digested
        assert not any(s.index.flags.writeable for s in trace.streams)


class TestRuntimeWiring:
    def test_configure_installs_beside_result_cache(self, tmp_path):
        saved = walk_cache().store
        try:
            runtime.configure(cache_dir=tmp_path / "cache")
            store = walk_cache().store
            assert store is not None
            assert store.root == tmp_path / "cache" / "walks"
            runtime.configure(cache_dir=None)  # auto + no cache -> off
            assert walk_cache().store is None
            runtime.configure(cache_dir=None,
                              walk_cache=tmp_path / "elsewhere")
            assert walk_cache().store.root == tmp_path / "elsewhere"
            runtime.configure(cache_dir=tmp_path / "cache",
                              walk_cache="off")
            assert walk_cache().store is None
        finally:
            runtime.reset()
            configure_walk_store(saved)

    def test_worker_entry_installs_store(self, tmp_path):
        from repro.runtime.executor import _install_walk_store

        saved = walk_cache().store
        try:
            configure_walk_store(None)
            _install_walk_store(None)
            assert walk_cache().store is None
            _install_walk_store(str(tmp_path / "w"))
            first = walk_cache().store
            assert first is not None
            _install_walk_store(str(tmp_path / "w"))  # idempotent
            assert walk_cache().store is first
        finally:
            configure_walk_store(saved)


def test_walk_cache_telemetry_counters(_isolated_walk_cache, tmp_path):
    wc = _isolated_walk_cache
    wc.store = WalkStore(tmp_path / "walks")
    machine = MachineConfig()
    trace = _trace(5, n=400)
    with obs.capture() as registry:
        _profiles(trace, machine)   # miss + store
        _profiles(trace, machine)   # memory hit
        wc.clear()
        _profiles(trace, machine)   # disk hit
    counters = registry.as_dict()["counters"]
    pre = "sim.memsys.walk_cache."
    assert counters[pre + "misses"] == 1
    assert counters[pre + "mem_hits"] == 1
    assert counters[pre + "disk_hits"] == 1
    assert counters[pre + "stores"] == 1
    assert counters[pre + "disk_bytes_written"] > 0
    assert counters[pre + "disk_bytes_read"] > 0


def test_walk_cache_capacity_type():
    wc = WalkCache()
    wc._memory.maxsize = 2
    held = [AccessStream(index=np.arange(4) * 64, elem_bytes=8)
            for _ in range(5)]
    for i, stream in enumerate(held):
        wc.put((i,), [stream], ([], [(0, 0)]))
    assert len(wc) <= 2
    assert wc.evictions >= 3


def _scaled(host) -> MachineConfig:
    return scale_caches(host(), CACHE_SCALE_DIVISOR["small"])


def _walk_state(machine: MachineConfig, trace: KernelTrace,
                window: int | None = None):
    """Profiles, per-level stats and published ``sim.cache.*`` counters
    of one hierarchy walk under sample window ``window`` (``None``:
    unsampled), plus the walk's registry."""
    h = MemoryHierarchy(machine)
    with pytest.MonkeyPatch.context() as mp, obs.capture() as registry:
        mp.setattr(memsys, "SAMPLE_WINDOW", window)
        profile = h.profile(trace)
    counters = registry.as_dict()["counters"]
    state = (
        [asdict(sp) for sp in profile.streams],
        [(c.stats.accesses, c.stats.hits) for c in (h.l1, h.l2, h.llc)],
        {k: v for k, v in counters.items() if k.startswith("sim.cache.")},
    )
    return state, counters


def _l2_traffic(monkeypatch) -> list[np.ndarray]:
    """The lines each later walk passes from its L1 to its L2, in
    walk order."""
    seen = []
    real = memsys._filter_level

    def recorded(cache, lines, counts):
        if cache.name == "l2":
            seen.append(lines)
        return real(cache, lines, counts)

    monkeypatch.setattr(memsys, "_filter_level", recorded)
    return seen


def _first_level_misses(wc: WalkCache) -> tuple[int, np.ndarray]:
    """The packed miss stream of the one first-level memo entry."""
    (entry,) = wc._first_level._entries.values()
    return entry[1][3]


def _assert_reuse_is_exact(wc: WalkCache, machine: MachineConfig,
                           trace: KernelTrace, to_l2: list) -> None:
    """Walk ``trace`` on ``machine`` (which shares the L1 of the walk
    that filled the memo) from the memo, fresh and on the reference
    model: each passes the first walk's L1 misses to the L2, as int64,
    and all three give one profile."""
    reuse, _ = _walk_state(machine, trace)
    assert wc.first_level_hits == 1
    wc.clear()
    fresh, _ = _walk_state(machine, trace)
    wc.clear()
    with cache_model("reference"):
        reference, _ = _walk_state(machine, trace)
    assert reuse == fresh == reference
    assert len(to_l2) == 4
    for lines in to_l2[1:]:
        assert lines.dtype == np.int64
        assert np.array_equal(lines, to_l2[0])


class TestFirstLevelMemo:
    """Hosts that share an L1 and differ below it classify it once."""

    def test_second_host_reuses_the_first_level(self, _isolated_walk_cache,
                                                monkeypatch):
        wc = _isolated_walk_cache
        a64fx, graviton = _scaled(a64fx_like), _scaled(graviton3_like)
        assert a64fx.l1d.num_sets == graviton.l1d.num_sets
        assert a64fx.l2 != graviton.l2
        matrix = uniform_random_matrix(300, 300, 6, seed=3)
        trace = characterize_spmspm(matrix, matrix.transpose(), a64fx)
        # the levels classified, by cache name, whatever the number of
        # stack-distance calls each takes
        levels = []
        real = memsys._walk_level

        def counted(cache, *args):
            levels.append(cache.name)
            return real(cache, *args)

        monkeypatch.setattr(memsys, "_walk_level", counted)
        _walk_state(a64fx, trace)
        assert levels == ["l1", "l2", "llc"]
        reuse, counters = _walk_state(graviton, trace)
        assert levels[3:] == ["l2", "llc"]
        assert wc.first_level_hits == 1
        assert counters["sim.memsys.walk_cache.first_level_hits"] == 1

        wc.clear()
        fresh, _ = _walk_state(graviton, trace)
        assert levels[5:] == ["l1", "l2", "llc"]
        wc.clear()
        with cache_model("reference"):
            reference, _ = _walk_state(graviton, trace)
        assert reuse == fresh == reference

    def test_miss_lines_kept_as_int32_offsets(self, _isolated_walk_cache,
                                             monkeypatch):
        """The memo keeps the L1 miss stream at 4 bytes a line; a reuse
        hands the L2 the same int64 lines as a fresh and a reference
        walk."""
        wc = _isolated_walk_cache
        a64fx, graviton = _scaled(a64fx_like), _scaled(graviton3_like)
        matrix = uniform_random_matrix(300, 300, 6, seed=3)
        trace = characterize_spmspm(matrix, matrix.transpose(), a64fx)
        to_l2 = _l2_traffic(monkeypatch)
        _walk_state(a64fx, trace)
        low, offsets = _first_level_misses(wc)
        assert offsets.dtype == np.int32
        assert offsets.nbytes == 4 * to_l2[0].size > 0
        assert np.array_equal(offsets + low, to_l2[0])
        _assert_reuse_is_exact(wc, graviton, trace, to_l2)

    def test_wide_span_keeps_int64(self, _isolated_walk_cache, monkeypatch):
        """Two streams more than 2**31 lines apart: the memo keeps the
        miss stream's int64 offsets, and the walk stays exact."""
        wc = _isolated_walk_cache
        a64fx, graviton = _scaled(a64fx_like), _scaled(graviton3_like)
        rng = np.random.default_rng(8)
        far = (3 << 31) * a64fx.l1d.line_bytes
        trace = KernelTrace(name="wide", streams=[
            AccessStream(index=rng.integers(0, 4000, 3000), elem_bytes=8,
                         label="near"),
            AccessStream(index=rng.integers(0, 4000, 3000), elem_bytes=8,
                         label="far", base=far),
        ])
        to_l2 = _l2_traffic(monkeypatch)
        _walk_state(a64fx, trace)
        low, offsets = _first_level_misses(wc)
        assert offsets.dtype == np.int64
        assert int(offsets.max()) >= 1 << 31
        assert np.array_equal(offsets + low, to_l2[0])
        _assert_reuse_is_exact(wc, graviton, trace, to_l2)

    def test_latency_and_mshrs_leave_the_key(self, _isolated_walk_cache):
        wc = _isolated_walk_cache
        machine = experiment_machine("small")
        slower = replace(machine, **{
            name: replace(getattr(machine, name),
                          latency=3 * getattr(machine, name).latency,
                          mshrs=1)
            for name in ("l1d", "l2", "llc")})
        trace = _trace(3)
        first = _profiles(trace, machine)
        first_llc = llc_only_profile(machine, trace.streams)
        hits, misses = wc.hits, wc.misses
        assert _profiles(trace, slower) == first
        assert llc_only_profile(slower, trace.streams) == first_llc
        assert (wc.hits, wc.misses) == (hits + 2, misses)

    def test_bounded_and_never_on_disk(self, tmp_path, _isolated_walk_cache):
        wc = _isolated_walk_cache
        wc.store = WalkStore(tmp_path / "walks")
        machine = MachineConfig()
        walks = FIRST_LEVEL_ENTRIES + 6
        held = [_trace(seed, n=200) for seed in range(walks)]
        for trace in held:
            _profiles(trace, machine)
            assert len(wc._first_level) <= FIRST_LEVEL_ENTRIES
        assert len(wc._first_level) == FIRST_LEVEL_ENTRIES
        assert len(wc.store) == walks  # whole walks only

    def test_single_level_walks_skip_it(self, _isolated_walk_cache):
        wc = _isolated_walk_cache
        llc_only_profile(MachineConfig(), _trace(4).streams)
        assert len(wc._first_level) == 0


class TestTracedWalk:
    """Tracing runs the same hierarchy walk as an untraced profile.

    The traced profile skips the walk cache and emits one ``sim.memsys``
    span per stream from the walk's returned profiles.  Each level is
    classified once over the concatenated streams, so the ``sim.cache.*``
    miss instants come once per level, not once per (stream, level).
    """

    @pytest.mark.parametrize("window", [None, 500])
    @pytest.mark.parametrize("kernel", ["spmv", "spmspm"])
    def test_traced_walk_matches_untraced(self, kernel, window):
        machine = experiment_machine("small")
        matrix = uniform_random_matrix(300, 300, 6, seed=5)
        trace = (characterize_spmv(matrix, machine) if kernel == "spmv"
                 else characterize_spmspm(matrix, matrix.transpose(),
                                          machine))

        untraced, _ = _walk_state(machine, trace, window)
        with obs.trace_capture() as tracer:
            traced, _ = _walk_state(machine, trace, window)
        assert traced == untraced

        profiles = untraced[0]
        spans = [e for e in tracer.events
                 if e[2] == "X" and e[3] == "sim.memsys"]
        assert [(name, args) for _, _, _, _, name, args in spans] == [
            (sp["label"] or "stream", {
                "accesses": sp["accesses"],
                "l1_hits": sp["l1_hits"],
                "mem_lines": sp["mem_accesses"],
            })
            for sp in profiles]
        # spans tile the virtual clock in program order
        ends = [ts + dur for ts, dur, *_ in spans]
        assert [ts for ts, *_ in spans[1:]] == ends[:-1]

        misses = [e[3] for e in tracer.events
                  if e[2] == "i" and e[4] == "misses"]
        assert misses
        assert sorted(misses) == sorted(set(misses))
        assert set(misses) <= {"sim.cache.l1", "sim.cache.l2",
                               "sim.cache.llc"}


class TestWeakEntries:
    """Both in-memory memos hold their streams weakly and by identity:
    an entry dies with its streams, and a walked stream is read-only.
    The mechanics of the memo class itself are in ``test_memo.py``."""

    def test_walked_streams_refuse_writes(self, _isolated_walk_cache):
        machine = experiment_machine("small")
        core, tmu = _trace(8), _trace(9)
        _profiles(core, machine)               # memory tier + first level
        llc_only_profile(machine, tmu.streams)  # memory tier only
        assert len(_isolated_walk_cache._first_level) == 1
        for stream in (*core.streams, *tmu.streams):
            with pytest.raises(ValueError):
                stream.index[0] = 0

    def test_dropped_trace_leaves_both_memos(self, _isolated_walk_cache):
        wc = _isolated_walk_cache
        machine = MachineConfig()
        _profiles(_trace(10, n=500), machine)  # warm any lazy state
        gc.collect()
        assert len(wc) == len(wc._first_level) == 0
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            trace = _trace(11, n=200_000)
            _profiles(trace, machine)
            llc_only_profile(machine, trace.streams)
            walked, _ = tracemalloc.get_traced_memory()
            assert len(wc) == 2 and len(wc._first_level) == 1
            del trace
            gc.collect()
            # the dead entries leave on the memos' next call
            assert len(wc) == len(wc._first_level) == 0
            end, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert walked - start > 3 * 2**20  # the streams were traced
        assert end - start < 2**20

    def test_live_gauges(self, _isolated_walk_cache):
        machine = MachineConfig()
        trace = _trace(12, n=400)
        with obs.capture() as registry:
            _profiles(trace, machine)
            llc_only_profile(machine, trace.streams)
        gauges = registry.as_dict()["gauges"]
        pre = "sim.memsys.walk_cache."
        assert gauges[pre + "live_walks"]["value"] == 2
        assert gauges[pre + "first_level_live"]["value"] == 1
        assert pre + "live_walks" not in registry.as_dict()["counters"]


def test_mttkrp_and_cpals_cells_hit_on_identity(tmp_path):
    """MTTKRP P1, P2 and CP-ALS walk one set of streams per tensor, so
    the memory tier answers their repeats by identity: the counts an
    ``array_equal`` check used to reach."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    snapshot = tmp_path / "snapshot.json"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "fig13", "--scale", "small",
         "--workloads", "mttkrp_mp,mttkrp_cp,cpals", "--jobs", "1",
         "--no-cache", "--walk-cache", "off",
         "--telemetry", str(snapshot)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    counters = json.loads(snapshot.read_text())["counters"]
    pre = "sim.memsys.walk_cache."
    assert counters[pre + "mem_hits"] == 16
    assert counters[pre + "misses"] == 12
