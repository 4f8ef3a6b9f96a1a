"""The operand memo: operand-only work (derived operands, scan arrays,
address streams) is built once per operand and shared across machines,
never returned stale, bounded, and read-only to its callers."""

import gc
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro import runtime
from repro.config import experiment_machine
from repro.eval.experiments import fig03_motivation
from repro.eval.workloads import (
    FACTOR_RANK,
    WORKLOADS,
    _load_input,
    inputs_for,
    run_workload,
)
from repro.formats.csr import CsrMatrix
from repro.generators.suite import (
    MATRIX_SUITE,
    TENSOR_SUITE,
    load_matrix,
    load_tensor,
)
from repro.generators import uniform_random_matrix
from repro.kernels import common
from repro.kernels.common import operand_memo
from repro.kernels.spadd import merge_counts
from repro.kernels.mttkrp import characterize_mttkrp
from repro.kernels.spmspm import (
    _symbolic_counts_fast,
    characterize_spmspm,
    spmspm_streams,
)
from repro.kernels.spmv import spmv_streams
from repro.kernels.triangle import characterize_triangle, lower_triangle
from repro.programs.cpals import cpals_timing_model
from repro.programs.mttkrp import mttkrp_timing_model
from repro.programs.spmspm import spmspm_timing_model
from repro.programs.triangle import triangle_timing_model
from repro.runtime.cache import MEMORY_CACHE_ENTRIES, MemoryCache
from repro.serve import SimService, Submission
from repro.sim.memsys import FIRST_LEVEL_ENTRIES, WALK_ENTRIES, walk_cache
from repro.sim.trace import Gather, Ranges
from tests.oracle import pattern_counts


def _fixed_nnz_matrix(rng, n: int, per_row: int) -> CsrMatrix:
    """A fresh n x n matrix with exactly ``per_row`` non-zeros per row,
    so every call yields an operand of the same shape and nnz."""
    rows = [np.sort(rng.choice(n, per_row, replace=False)) for _ in range(n)]
    idxs = np.concatenate(rows)
    return CsrMatrix((n, n), np.arange(n + 1) * per_row, idxs, np.ones(idxs.size))


def _accumulator(a: CsrMatrix, b: CsrMatrix):
    """The SpMSpM baseline's accumulator stream on ``A @ B``."""
    (acc,) = (s for s in spmspm_streams(a, b)[0] if s.label == "accumulator")
    return acc


def _scan_positions(ptrs, keys) -> np.ndarray:
    """Positions of fiber ``keys[k]`` for each k, concatenated: the
    per-fiber loop the vectorized scans must equal."""
    parts = [np.arange(ptrs[k], ptrs[k + 1]) for k in keys]
    return np.concatenate(parts) if parts else np.zeros(0, np.int64)


class TestNeverStale:
    def test_fresh_same_size_operands(self):
        # Each pair dies at the end of its iteration, so the allocator
        # hands its ids to the next pair: an id-keyed memo that holds no
        # reference answers with a dead pair's arrays.
        rng = np.random.default_rng(0)
        stale = 0
        for _ in range(300):
            a = _fixed_nnz_matrix(rng, 24, 3)
            b = a.transpose()
            expect = _scan_positions(b.ptrs, a.idxs)
            acc = _accumulator(a, b)
            counts = _symbolic_counts_fast(a, b)
            stale += not (
                np.array_equal(acc.addresses,
                               acc.base + acc.stride * b.idxs[expect])
                and np.array_equal(counts, pattern_counts("ik,kj->ij", a, b))
            )
        assert stale == 0

    def test_bounded(self):
        memo = operand_memo(lambda a: a + 1)
        held = [np.arange(3) for _ in range(common.MEMO_ENTRIES + 50)]
        for arr in held:
            memo(arr)
            assert len(common._MEMO) <= common.MEMO_ENTRIES
        assert len(common._MEMO) == common.MEMO_ENTRIES

    def test_hit_returns_the_same_object(self, small_csr):
        assert spmv_streams(small_csr) is spmv_streams(small_csr)

    def test_ints_key_by_value_and_position(self):
        calls = []

        @operand_memo
        def scaled(a, k, j):
            calls.append((k, j))
            return a * k + j

        arr = np.arange(3)
        big = 10**6
        first = scaled(arr, big, 2)
        assert scaled(arr, int(str(big)), 2) is first  # equal, not same
        scaled(arr, 2, big)
        assert calls == [(big, 2), (2, big)]

    def test_refuses_operands_without_weak_references(self):
        with pytest.raises(TypeError):
            operand_memo(len)((1, 2))


class TestReadOnly:
    def test_stream_arrays_refuse_writes(self, small_csr):
        for stream in spmv_streams(small_csr):
            for array in stream.index_arrays():
                with pytest.raises(ValueError):
                    array[0] = 0

    def test_scan_arrays_refuse_writes(self, small_csr):
        acc = _accumulator(small_csr, small_csr.transpose())
        assert isinstance(acc.index, Gather)
        for array in acc.index_arrays():
            with pytest.raises(ValueError):
                array[0] = 0


def _merge_counts_loop(a, b):
    """Per-row ``intersect1d`` oracle for :func:`merge_counts`."""
    steps = both = 0
    for i in range(a.num_rows):
        ia = a.idxs[a.ptrs[i] : a.ptrs[i + 1]]
        ib = b.idxs[b.ptrs[i] : b.ptrs[i + 1]]
        inter = np.intersect1d(ia, ib, assume_unique=True).size
        steps += ia.size + ib.size - inter
        both += inter
    return steps, both


class TestSpaddMergeCounts:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_row_loop(self, seed):
        rows, cols = 40 + 7 * seed, 30 + 11 * seed
        a = uniform_random_matrix(rows, cols, 0.5 + seed, seed=seed)
        b = uniform_random_matrix(rows, cols, 0.5 + seed, seed=seed + 100)
        assert merge_counts(a, b) == _merge_counts_loop(a, b)

    def test_transposed_square(self, small_csr):
        at = small_csr.transpose()
        assert merge_counts(small_csr, at) == _merge_counts_loop(small_csr, at)

    def test_self_merge_is_all_hits(self, small_csr):
        nnz = small_csr.nnz
        assert merge_counts(small_csr, small_csr) == (nnz, nnz)


def _machines():
    """Two machines that differ only in SVE width and TMU storage."""
    base = experiment_machine("small")
    return [
        base.with_core(vector_bits=bits).with_tmu(
            lanes=bits // 64, per_lane_storage_bytes=kb * 1024
        )
        for bits, kb in ((256, 3), (128, 5))
    ]


class TestSharedAcrossMachines:
    @pytest.mark.parametrize("workload", ["spmv", "spmspm"])
    def test_streams_are_the_same_objects(self, workload):
        spec = WORKLOADS[workload]
        data = _load_input(spec, "M3", "small")
        first, second = _machines()
        one, two = spec.baseline(data, first), spec.baseline(data, second)
        assert one.vector_ops != two.vector_ops
        assert all(s is t for s, t in zip(one.streams, two.streams, strict=True))
        one, two = spec.tmu_model(data, first), spec.tmu_model(data, second)
        assert one.layer_lanes != two.layer_lanes
        assert all(
            s is t for s, t in zip(one.tmu_streams, two.tmu_streams, strict=True)
        )

    def test_second_baseline_walk_is_a_memory_hit(self):
        first, second = _machines()
        cache = walk_cache()
        run_workload("spmspm", "M4", first, "small", variants=("baseline",))
        hits, misses = cache.hits, cache.misses
        run_workload("spmspm", "M4", second, "small", variants=("baseline",))
        assert (cache.hits, cache.misses) == (hits + 1, misses)


def _same_objects(first, second) -> bool:
    return all(s is t for s, t in zip(first, second, strict=True))


class TestOneArrayPerContent:
    """Streams of equal content that several kernels or schemes issue
    are one read-only index object at one base and stride, so the walk
    cache reuses them by identity."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_one_array_per_content_in_a_cell(self, workload):
        """Within one cell, the baseline trace, the TMU's traversal
        streams and the core's result streams issue each address
        content as one index object plus one ``(base, stride)``."""
        spec = WORKLOADS[workload]
        machine = experiment_machine("small")
        data = _load_input(spec, inputs_for(workload)[0], "small")
        streams = list(spec.baseline(data, machine).streams)
        if spec.tmu_model is not None:
            model = spec.tmu_model(data, machine)
            streams += model.tmu_streams + model.core_trace.streams
        groups: dict[bytes, dict[tuple, str]] = {}
        for s in streams:
            if s.count:  # an empty stream has no content to share
                key = (id(s.index), s.base, s.stride)
                groups.setdefault(s.addresses.tobytes(), {})[key] = s.label
        shared = [sorted(g.values()) for g in groups.values() if len(g) > 1]
        assert not shared, shared

    def test_mttkrp_schemes_and_cpals_share_streams(self):
        machine = experiment_machine("small")
        tensor = _load_input(WORKLOADS["mttkrp_mp"], "T4", "small")
        p1, p2 = (
            characterize_mttkrp(tensor, FACTOR_RANK, machine, scheme)
            for scheme in ("mode", "rank")
        )
        assert _same_objects(p1.streams, p2.streams)
        rmw, write = p1.streams[-2:]
        assert (rmw.label, write.label) == ("Z[i,:] rmw", "Z[i,:]")
        assert rmw.index is write.index
        assert (rmw.base, rmw.stride) == (write.base, write.stride)
        m1, m2 = (
            mttkrp_timing_model(tensor, FACTOR_RANK, machine, parallel=scheme)
            for scheme in ("mode", "rank")
        )
        cpals = cpals_timing_model(tensor, FACTOR_RANK, machine)
        assert _same_objects(m1.tmu_streams, m2.tmu_streams)
        assert _same_objects(m1.tmu_streams * 3, cpals.tmu_streams)

    def test_spmspm_baseline_and_tmu_share_b_scans(self, small_csr):
        machine = experiment_machine("small")
        b = small_csr.transpose()
        trace = characterize_spmspm(small_csr, b, machine)
        model = spmspm_timing_model(small_csr, b, machine)
        base = {s.label: s for s in trace.streams}
        tmu = {s.label: s for s in model.tmu_streams}
        for label in ("A ptrs", "A idxs", "A vals", "B idxs scan", "B vals scan"):
            assert base[label] is tmu[label], label
        # the two B-row scans read one Ranges of B's rows
        scan = base["B idxs scan"].index
        assert isinstance(scan, Ranges)
        assert base["B vals scan"].index is scan
        assert np.array_equal(scan.expand(),
                              _scan_positions(b.ptrs, small_csr.idxs))
        # the accumulator is indexed by the scanned columns themselves:
        # B's column array read through the same Ranges
        acc = base["accumulator"].index
        assert isinstance(acc, Gather)
        assert acc.ranges is scan and acc.values is b.idxs
        # B's row pointers are looked up at A's own column array
        assert tmu["B ptrs lookup"].index is small_csr.idxs

    def test_tc_never_gathers_columns(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("TC built SpMSpM's column gather")

        # the package re-exports the kernel function under the
        # submodule's name
        kernel_module = sys.modules["repro.kernels.spmspm"]
        for name in ("Gather", "_symbolic_counts_fast"):
            monkeypatch.setattr(kernel_module, name, refuse)
        machine = experiment_machine("small")
        l_mat = lower_triangle(uniform_random_matrix(90, 90, 8, seed=11))
        expect = _scan_positions(l_mat.ptrs, l_mat.idxs)
        for trace_streams in (
            characterize_triangle(l_mat, machine).streams,
            triangle_timing_model(l_mat, machine).tmu_streams,
        ):
            scan = trace_streams[-1]
            assert scan.label == "L_j idxs" and scan.count == expect.size
            # the rows' ranges, no position array
            assert isinstance(scan.index, Ranges)
            assert np.array_equal(scan.index.expand(), expect)


#: Runs small cells of four workloads, drops every holder of the
#: inputs (the loaders), and prints the live entries of the operand
#: memo, the walk memory tier and the first-level memo, read in that
#: order (a dead operand releases its streams, whose walks then leave).
_LIFETIME_SCRIPT = """
import gc
from repro.config import experiment_machine
from repro.eval.workloads import run_workload
from repro.generators.suite import load_matrix, load_tensor
from repro.kernels import common
from repro.sim.memsys import walk_cache

machine = experiment_machine("small")
for workload, inputs in (("spmv", "M1 M2"), ("spmspm", "M1 M2"),
                         ("tc", "M1 M2"), ("mttkrp_mp", "T1 T2")):
    for input_id in inputs.split():
        run_workload(workload, input_id, machine, "small")
wc = walk_cache()
print(len(common._MEMO), len(wc), len(wc._first_level))
for memo in (load_matrix, load_tensor):
    memo.cache_clear()
gc.collect()
print(len(common._MEMO), len(wc), len(wc._first_level))
"""


def test_memos_keep_nothing_once_the_inputs_are_gone():
    """No memo keeps a dropped input alive, nor anything built from it:
    derived operands (``_lower``'s L keys TC's scan positions), their
    streams, and the walks of those streams all leave with one read of
    each memo.  Runs in a fresh process, so no other test holds an
    input."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", _LIFETIME_SCRIPT],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    live, after = (tuple(map(int, line.split()))
                   for line in proc.stdout.splitlines())
    assert all(live), live
    assert after == (0, 0, 0)


def test_loaders_keep_one_scale_resident():
    """The input loaders hold one scale's suite, and a folded tensor is
    held by the operand memo on the loaded tensor's identity."""
    assert load_matrix.cache_info().maxsize == len(MATRIX_SUITE)
    assert load_tensor.cache_info().maxsize == len(TENSOR_SUITE)
    spec = WORKLOADS["mttkrp_mp"]
    folded = _load_input(spec, "T4", "small")
    assert folded.ndim == 3
    assert _load_input(spec, "T4", "small") is folded


def _memo_sizes(rt: runtime.Runtime) -> dict[str, int]:
    wc = walk_cache()
    return {
        "operand": len(common._MEMO),
        "walk": len(wc),
        "first_level": len(wc._first_level),
        "runs": len(rt.cache._records),
        "matrices": load_matrix.cache_info().currsize,
        "tensors": load_tensor.cache_info().currsize,
    }


def test_repeated_sweep_keeps_memos_flat():
    """A long-running process that re-runs the Fig. 3 sweep must not
    grow any process-wide memo.  The second sweep runs on a fresh
    runtime, whose in-memory result cache is empty, so every cell is
    simulated again and the memos below it see the full traffic a
    second time."""
    bounds = {
        "operand": common.MEMO_ENTRIES,
        "walk": WALK_ENTRIES,
        "first_level": FIRST_LEVEL_ENTRIES,
        "runs": MEMORY_CACHE_ENTRIES,
        "matrices": len(MATRIX_SUITE),
        "tensors": len(TENSOR_SUITE),
    }
    try:
        rt = runtime.configure()
        first_rows = fig03_motivation("small")
        first = _memo_sizes(rt)
        rt = runtime.configure()
        second_rows = fig03_motivation("small")
        second = _memo_sizes(rt)
    finally:
        runtime.reset()
    assert second_rows == first_rows
    for name, bound in bounds.items():
        assert first[name] <= bound, name
        assert second[name] <= first[name], name


def _rss_mb() -> float:
    """Current resident set size in MiB, after a full collection."""
    gc.collect()
    with open("/proc/self/statm", encoding="ascii") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


#: RSS growth allowed from the second to the third identical sweep on
#: one service.  Measured on a 2-core VM, the sweep below repeated five
#: times in a fresh process: 0.0 MiB from the second run on (the first
#: run builds the inputs, streams and memo entries later runs reuse).
SERVE_RSS_MARGIN_MB = 4.0


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="needs /proc/self/statm")
def test_serve_rss_stays_flat_over_repeated_sweeps(tmp_path):
    """A long-running ``repro serve`` re-running one sweep must keep
    its memory flat in bytes, not only in memo entries.  Each run
    drops the finished job (so the sweep is accepted again) and gives
    the scheduler a fresh in-memory result cache (so every cell is
    evaluated again); the service has no cache directory."""
    service = SimService(state_dir=tmp_path / "state")
    service.start()
    submission = Submission.from_dict({"sweep": {
        "workloads": ["spmv", "spkadd", "mttkrp_mp"]}})
    rss = []
    try:
        for _run in range(3):
            service.scheduler.cache = MemoryCache()
            job, created = service.scheduler.submit(submission)
            assert created
            deadline = time.monotonic() + 120
            while not service.store.get(job.id).state.terminal:
                assert time.monotonic() < deadline, "sweep never finished"
                time.sleep(0.01)
            job = service.store.get(job.id)
            assert job.state.value == "done"
            assert job.simulated == job.total == 16
            service.store.delete(job.id)
            rss.append(_rss_mb())
    finally:
        service.stop()
    assert rss[2] - rss[1] <= SERVE_RSS_MARGIN_MB, rss
