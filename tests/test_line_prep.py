"""Line prep from a stream's index: ``prepare_lines`` on a ``Ranges`` or
a positions index must return exactly what the reference prep
(consecutive dedup of the materialized addresses) returns — the same
lines, dtype, total and scale — and a ``Ranges`` stream must never be
expanded to its full length."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim import memsys
from repro.sim.trace import AccessStream, Ranges

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
