"""Shared helpers for TMU program builders and timing models.

Timing models build no address stream that the baseline also issues:
they take those from the baseline's builders under
:mod:`repro.kernels`.  :func:`write_stream` places a result stream
that only the TMU-side core writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..config import MachineConfig
from ..sim.trace import AccessStream, AddressSpace
from ..types import VALUE_BYTES
from ..tmu.outq import MASK_BYTES, RECORD_HEADER_BYTES, SCALAR_BYTES


@dataclass
class BuiltProgram:
    """A functional program plus the callback closures that complete it.

    ``handlers`` maps callback IDs to closures; ``result`` is a callable
    returning the computed output after the engine ran.
    """

    program: object
    handlers: dict[str, Callable]
    result: Callable[[], object]
    description: str = ""


def record_bytes(num_vec_operands: int, lanes: int,
                 num_scalar_operands: int = 0, with_mask: bool = False
                 ) -> int:
    """Wire size of one outQ record with the given operand shape."""
    total = RECORD_HEADER_BYTES
    total += num_vec_operands * lanes * SCALAR_BYTES
    total += num_scalar_operands * SCALAR_BYTES
    if with_mask:
        total += MASK_BYTES
    return total


def write_stream(space: AddressSpace, num_elems: int, label: str,
                 elem_bytes: int = VALUE_BYTES) -> AccessStream:
    base = space.place(max(1, num_elems) * elem_bytes)
    return AccessStream(
        base + np.arange(num_elems, dtype=np.int64) * elem_bytes,
        elem_bytes, "write", label)


def sve_lanes_of(machine: MachineConfig) -> int:
    """TMU lane count tied to the SVE width (Section 7.2: 512-bit SVE ↔
    8 lanes, 256-bit ↔ 4 lanes)."""
    return max(1, machine.core.vector_bits // 64)
