"""Shared helpers for TMU program builders and timing models.

Timing models build no address stream that the baseline also issues:
they take those from the baseline's builders under
:mod:`repro.kernels`, and place a result stream that only the TMU-side
core writes with :func:`~repro.kernels.common.sequential_stream`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..config import MachineConfig
from ..errors import WorkloadError
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


def check_contracted(kernel: str, a_extent: int, b_extent: int) -> None:
    """Refuse a B whose leading extent is not A's contracted one: a
    longer B would run to a wrong result, a shorter one would fail
    mid-run on an out-of-bounds load."""
    if b_extent != a_extent:
        raise WorkloadError(
            f"{kernel}: B's leading extent {b_extent} does not match "
            f"A's contracted extent {a_extent}")


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


def sve_lanes_of(machine: MachineConfig) -> int:
    """TMU lane count tied to the SVE width (Section 7.2: 512-bit SVE ↔
    8 lanes, 256-bit ↔ 4 lanes)."""
    return max(1, machine.core.vector_bits // 64)
