"""TU data stream tests (Table 2)."""

import numpy as np
import pytest

from repro.errors import TMUConfigError
from repro.tmu.streams import (
    IteStream,
    LinStream,
    MemoryArray,
    MemStream,
)


@pytest.fixture
def array():
    return MemoryArray(data=np.array([10.0, 20.0, 30.0]),
                       base_address=1 << 30, elem_bytes=8, name="p")


class TestMemoryArray:
    def test_addressing(self, array):
        assert array.address_of(2) == (1 << 30) + 16

    def test_load(self, array):
        assert array.load(1) == 20.0

    def test_out_of_bounds(self, array):
        with pytest.raises(TMUConfigError):
            array.load(3)
        with pytest.raises(TMUConfigError):
            array.load(-1)

    def test_must_be_1d(self):
        with pytest.raises(TMUConfigError):
            MemoryArray(np.zeros((2, 2)), 0, 8)


class TestStreams:
    def test_mem_loads_at_parent_value(self, array):
        s = MemStream(array, IteStream())
        assert s.derive(2) == 30.0
        assert s.touched_address(2) == array.address_of(2)

    def test_mem_offset(self, array):
        s = MemStream(array, IteStream(), offset=1)
        assert s.derive(0) == 20.0

    def test_lin_transform(self):
        s = LinStream(3.0, 2.0, IteStream())
        assert s.derive(4) == 14.0
        assert s.touched_address(4) is None
