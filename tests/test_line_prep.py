"""Line prep from a stream's index: ``prepare_lines`` on a ``Ranges``, a
``Gather`` or a positions index must return exactly what the reference
prep (consecutive dedup of the materialized addresses) returns — the
same lines, dtype, total and scale — and neither a ``Ranges`` nor a
``Gather`` stream may be expanded to its full length.

The seeded gather fuzz rotates with ``REPRO_FUZZ_SEED`` (the CI
parity-fuzz job sets it per run); a failure reproduces with
``REPRO_FUZZ_SEED=<seed> pytest tests/test_line_prep.py``."""

import os
import tracemalloc

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.formats.csr import CsrMatrix
from repro.generators.suite import MATRIX_SUITE, load_matrix
from repro.sim import memsys
from repro.sim.trace import AccessStream, Gather, Ranges

#: rotating fuzz seed of :class:`TestGatherFuzz`
FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0x6A7E4"), 0)

LINE = 64


def _prep(stream: AccessStream, reference: bool, line_bytes: int = LINE):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(memsys, "_REFERENCE", reference)
        return memsys.prepare_lines(stream, line_bytes)


def _assert_exact(stream: AccessStream, line_bytes: int = LINE) -> None:
    lines, total, scale = _prep(stream, False, line_bytes)
    ref_lines, ref_total, ref_scale = _prep(stream, True, line_bytes)
    assert lines.dtype == ref_lines.dtype == np.int64
    assert np.array_equal(lines, ref_lines)
    assert (total, scale) == (ref_total, ref_scale)


def _both_forms(starts, lengths, **kw) -> list[AccessStream]:
    """The same accesses as a ``Ranges`` stream and as int32 and int64
    positions streams."""
    ranges = Ranges(starts, lengths)
    positions = ranges.expand()
    return [AccessStream(index, 8, **kw)
            for index in (ranges, positions, positions.astype(np.int32))]


@pytest.fixture
def window(monkeypatch):
    def set_window(value):
        monkeypatch.setattr(memsys, "SAMPLE_WINDOW", value)
    return set_window


class TestExactness:
    def test_empty_streams(self):
        for stream in (*_both_forms([], []), *_both_forms([3, 9], [0, 0])):
            _assert_exact(stream)
            lines, total, scale = _prep(stream, False)
            assert (lines.size, total, scale) == (0, 0, 1.0)

    def test_zero_length_ranges_between_non_empty_ones(self):
        for stream in _both_forms([0, 50, 7, 80, 8], [7, 0, 1, 0, 30],
                                  base=1 << 30, stride=8):
            _assert_exact(stream)

    def test_ranges_inside_one_line(self):
        # 8-byte elements, 8 per line: each range stays in its line
        for stream in _both_forms([0, 8, 17, 16, 40], [8, 3, 5, 2, 1],
                                  base=1 << 30, stride=8):
            _assert_exact(stream)

    def test_one_line_range_joining_on_both_sides(self):
        # range 1 lies in the line range 0 ends on and range 2 starts on
        for stream in _both_forms([0, 10, 12, 24], [11, 2, 6, 4],
                                  base=1 << 30, stride=8):
            lines, total, _ = _prep(stream, False)
            assert total == 4 and lines.tolist() == [
                (1 << 24) + k for k in (0, 1, 2, 3)]
            _assert_exact(stream)

    @pytest.mark.parametrize("cut", [
        5,    # inside the second range
        4,    # exactly at the first range's end (lines 0..3)
        12,   # exactly at the second range's end
    ])
    def test_window_cut(self, window, cut):
        window(cut)
        # lines 0-3, then 5-12, then 20-29
        for stream in _both_forms([0, 40, 160], [32, 64, 80], stride=8):
            _assert_exact(stream)
            lines, total, scale = _prep(stream, False)
            assert total == 22 and lines.size == cut
            assert scale == 22 / cut

    @pytest.mark.parametrize("stride", [4, 8, 16, 64])
    def test_strides(self, window, stride):
        rng = np.random.default_rng(stride)
        starts = rng.integers(0, 5000, 300)
        lengths = rng.integers(0, 90, 300)
        for w in (None, 1000):
            window(w)
            for stream in _both_forms(starts, lengths, base=1 << 30,
                                      stride=stride):
                _assert_exact(stream)

    def test_stride_above_the_line_takes_the_positions_path(
            self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a wide-stride stream took the range path")

        monkeypatch.setattr(memsys, "_range_lines", refuse)
        for stream in _both_forms([0, 3, 9], [5, 4, 7], base=1 << 30,
                                  stride=2 * LINE):
            _assert_exact(stream)

    @pytest.mark.parametrize("base", [12, (1 << 30) + 40, 1000003])
    def test_base_not_line_aligned(self, base):
        for stride in (4, 8, 24, 64):
            for stream in _both_forms([0, 5, 90, 91], [30, 0, 1, 44],
                                      base=base, stride=stride):
                _assert_exact(stream)

    def test_int32_and_int64_positions(self):
        rng = np.random.default_rng(3)
        positions = rng.integers(0, 1 << 20, 20_000)
        for dtype in (np.int32, np.int64):
            for stride in (4, 8, 64, 3):
                _assert_exact(AccessStream(positions.astype(dtype), 8,
                                           base=1 << 31, stride=stride))

    def test_raw_addresses(self):
        rng = np.random.default_rng(4)
        _assert_exact(AccessStream(rng.integers(0, 1 << 24, 5000), 8))
        _assert_exact(AccessStream(Ranges([10, 300], [200, 40]), 1))

    def test_random_streams(self, window):
        rng = np.random.default_rng(5)
        for trial in range(300):
            count = int(rng.integers(0, 12))
            starts = rng.integers(0, 300, count)
            lengths = rng.integers(0, 40, count) * (rng.random(count) < 0.8)
            base = int(rng.choice([0, 1 << 30, 12, 1000003]))
            stride = int(rng.choice([1, 3, 4, 8, 16, 24, 64, 128]))
            window([None, 1, 5, 37][trial % 4])
            for stream in _both_forms(starts, lengths, base=base,
                                      stride=stride):
                _assert_exact(stream)

    def test_line_bytes_other_than_64(self):
        for line_bytes in (32, 128):
            for stream in _both_forms([0, 9, 40], [33, 2, 70],
                                      base=1 << 30, stride=8):
                _assert_exact(stream, line_bytes)

    def test_line_size_must_be_a_power_of_two(self):
        for stream in _both_forms([0, 9], [33, 2]):
            for reference in (False, True):
                with pytest.raises(SimulationError):
                    _prep(stream, reference, 48)


def test_ranges_prep_never_builds_the_full_stream():
    """A 50M-element walk is prepared from its ranges: no array of its
    full length (400 MB of int64 addresses) is allocated, only the
    window."""
    count = 50_000_000
    streams = [
        AccessStream(Ranges.span(count), 4, base=1 << 30, stride=4),
        AccessStream(Ranges(np.arange(1000) * count // 1000,
                            np.full(1000, count // 1000)), 4,
                     base=1 << 30, stride=4),
    ]
    for stream in streams:
        tracemalloc.start()
        try:
            lines, total, scale = memsys.prepare_lines(stream, LINE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert total == count * 4 // LINE
        assert lines.size == memsys.SAMPLE_WINDOW
        assert scale == total / memsys.SAMPLE_WINDOW
        assert peak < count // 8, peak  # well under a byte per element


def _gather(values, starts, lengths, **kw) -> AccessStream:
    """A stream reading ``values`` at the positions of ``Ranges(starts,
    lengths)``."""
    return AccessStream(Gather(np.asarray(values), Ranges(starts, lengths)),
                        8, **kw)


def _scan(a: CsrMatrix, b: CsrMatrix, **kw) -> AccessStream:
    """The accumulator of Gustavson's ``A @ B``: B's columns read
    through the B-row scans that A's column indexes select."""
    return AccessStream(Gather(b.idxs, Ranges.fibers(b.ptrs, a.idxs)), 8,
                        **kw)


class TestGatherExactness:
    # 8-byte accumulator entries: keys 0-7 share line 0, 8-15 line 1, ...
    KW = {"base": 1 << 30, "stride": 8}

    def test_empty_gathers(self):
        for stream in (_gather(np.zeros(0, np.int64), [], []),
                       _gather([5, 9], [], []),
                       _gather([5, 9], [1, 0], [0, 0])):
            _assert_exact(stream)
            lines, total, scale = _prep(stream, False)
            assert (lines.size, total, scale) == (0, 0, 1.0)

    def test_zero_length_ranges_between_non_empty_ones(self):
        values = np.arange(0, 400, 4)
        _assert_exact(_gather(values, [0, 50, 7, 80, 8, 3],
                              [7, 0, 1, 0, 30, 0], **self.KW))

    def test_range_starting_on_the_previous_range_last_line(self):
        # range 0 ends on line 2 (key 17), range 1 starts there (key
        # 20): a join; range 2 starts on a new line
        values = np.array([0, 9, 17, 20, 21, 40, 3])
        stream = _gather(values, [0, 3, 5], [3, 2, 2], **self.KW)
        lines, total, _ = _prep(stream, False)
        offset = (1 << 30) >> 6
        assert total == 5
        assert (lines - offset).tolist() == [0, 1, 2, 5, 0]
        _assert_exact(stream)

    def test_join_across_an_empty_range(self):
        values = np.array([1, 2, 3, 4])
        stream = _gather(values, [0, 3, 2], [2, 0, 2], **self.KW)
        assert _prep(stream, False)[1] == 1
        _assert_exact(stream)

    @pytest.mark.parametrize("cut", [
        2,    # inside the first range
        3,    # exactly at the first range's end
        5,    # exactly at the second range's end
        6,    # inside the third range
    ])
    def test_window_cut(self, window, cut):
        window(cut)
        # lines 0, 1, 2 | 4, 5 | 7, 8, 9
        values = np.array([0, 8, 9, 16, 32, 40, 56, 64, 72])
        stream = _gather(values, [0, 3, 4, 6], [3, 1, 2, 3], **self.KW)
        _assert_exact(stream)
        lines, total, scale = _prep(stream, False)
        assert total == 8 and lines.size == cut
        assert scale == 8 / cut

    def test_unsorted_values_within_a_range(self, window):
        rng = np.random.default_rng(11)
        values = rng.integers(0, 300, 2000)
        starts = rng.integers(0, 1800, 60)
        lengths = rng.integers(0, 200, 60)
        for w in (None, 50, 400):
            window(w)
            _assert_exact(_gather(values, starts, lengths, **self.KW))

    @pytest.mark.parametrize("stride", [4, 8, 16, 64, 128])
    @pytest.mark.parametrize("base", [1 << 30, 12, (1 << 30) + 40])
    def test_strides_and_unaligned_bases(self, window, stride, base):
        rng = np.random.default_rng(stride + base)
        values = np.sort(rng.integers(0, 5000, 3000))
        starts = rng.integers(0, 2900, 200)
        lengths = rng.integers(0, 100, 200)
        for w in (None, 700):
            window(w)
            _assert_exact(_gather(values, starts, lengths, base=base,
                                  stride=stride))

    def test_int32_and_int64_values(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 1 << 20, 20_000)
        starts = rng.integers(0, 19_000, 500)
        lengths = rng.integers(0, 1000, 500)
        for dtype in (np.int32, np.int64):
            for stride in (4, 8, 64, 3):
                _assert_exact(_gather(values.astype(dtype), starts, lengths,
                                      base=1 << 31, stride=stride))

    @pytest.mark.parametrize("name", sorted(MATRIX_SUITE))
    def test_suite_spmspm_scans(self, window, name):
        a = load_matrix(name, "small")
        stream = _scan(a, a.transpose(), **self.KW)
        for w in (memsys.SAMPLE_WINDOW, None):
            window(w)
            _assert_exact(stream)

    def test_count_and_addresses(self):
        values = np.array([7, 3, 5, 1, 0])
        stream = _gather(values, [3, 0, 2], [2, 3, 0], base=64, stride=8)
        assert stream.count == stream.addresses.size == 5
        assert stream.addresses.tolist() == [64 + 8 * k
                                             for k in (1, 0, 7, 3, 5)]
        assert stream.addresses.dtype == np.int64


class TestGatherDigest:
    def test_digest_moves_with_each_array_and_the_form(self):
        values, starts, lengths = (np.array([4, 1, 9, 2]), np.array([0, 2]),
                                   np.array([2, 2]))
        digest = _gather(values, starts, lengths).digest()
        assert _gather(values.copy(), starts.copy(),
                       lengths.copy()).digest() == digest
        for moved in (
            _gather(np.array([4, 1, 9, 3]), starts, lengths),
            _gather(values, np.array([1, 2]), lengths),
            _gather(values, starts, np.array([2, 1])),
            _gather(values.astype(np.int32), starts, lengths),
            # the same addresses, as a positions index
            AccessStream(values, 8),
        ):
            assert moved.digest() != digest

    def test_digested_arrays_refuse_writes(self):
        stream = _gather(np.array([4, 1, 9, 2]), [0, 2], [2, 2])
        stream.digest()
        arrays = stream.index_arrays()
        assert len(arrays) == 3
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 0


def test_gather_prep_never_builds_the_full_scan():
    """A 100M-element scan of 500 passes over a 200k-key array is
    prepared from the keys and the ranges: only the ranges that reach
    the window are expanded."""
    rng = np.random.default_rng(8)
    keys = 200_000
    values = rng.integers(0, 1 << 22, keys).astype(np.int32)
    stream = AccessStream(
        Gather(values, Ranges(np.zeros(500, dtype=np.int64),
                              np.full(500, keys))),
        8, base=1 << 30, stride=8)
    tracemalloc.start()
    try:
        lines, total, scale = memsys.prepare_lines(stream, LINE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lines.size == memsys.SAMPLE_WINDOW
    assert total > 400 * keys
    assert peak < stream.count // 8, peak  # well under a byte per access


def _random_csr(rng, rows: int, cols: int) -> CsrMatrix:
    """A random ``rows x cols`` CSR matrix with empty rows and rows of
    up to ``cols`` entries."""
    counts = rng.integers(0, cols + 1, rows) * (rng.random(rows) < 0.8)
    idxs = np.concatenate([np.sort(rng.choice(cols, c, replace=False))
                           for c in counts] or [np.zeros(0, np.int64)])
    ptrs = np.concatenate(([0], np.cumsum(counts)))
    return CsrMatrix((rows, cols), ptrs, idxs, np.ones(idxs.size))


class TestGatherFuzz:
    def test_random_csr_scans(self, window):
        """Gustavson scans of random CSR pairs under random bases,
        strides and windows, rotating with REPRO_FUZZ_SEED."""
        rng = np.random.default_rng(FUZZ_SEED)
        for trial in range(1000):
            inner = int(rng.integers(1, 30))
            a = _random_csr(rng, int(rng.integers(1, 30)), inner)
            b = _random_csr(rng, inner, int(rng.integers(1, 300)))
            base = int(rng.choice([0, 1 << 30, 12, 1000003]))
            stride = int(rng.choice([1, 3, 4, 8, 16, 24, 64, 128]))
            window([None, 1, 5, 37, 200][trial % 5])
            try:
                _assert_exact(_scan(a, b, base=base, stride=stride))
            except AssertionError as exc:
                raise AssertionError(
                    f"REPRO_FUZZ_SEED={FUZZ_SEED:#x}, trial {trial}") from exc
