"""Multicore execution: row-partitioned parallel runs.

The paper evaluates an 8-core system with every core running the same
kernel on a shard of the row/fiber space and its own TMU (Section 5.6:
one engine per core, private outQs, read-only shared traversals).  The
per-core models in :mod:`repro.sim.machine` assume perfectly symmetric
shards; this module makes the partitioning explicit so load imbalance
and core-count scaling can be studied:

* :func:`partition_rows` — contiguous, nnz-balanced row partitioning
  (the OpenMP-static-by-nnz split TACO-style baselines use);
* :func:`parallel_speedup` — the imbalance-aware scaling factor:
  parallel time = slowest shard + the bandwidth floor of the *total*
  traffic through the shared memory system;
* :func:`run_parallel` — whole-chip cycle estimate from a per-shard
  runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..config import MachineConfig
from ..errors import SimulationError


def partition_rows(row_weights, num_parts: int) -> list[tuple[int, int]]:
    """Split rows into ``num_parts`` contiguous [beg, end) shards with
    near-equal total weight (non-zeros per row).

    Uses the standard prefix-sum splitter: shard k covers the rows
    whose cumulative weight falls in slice k.
    """
    weights = np.asarray(row_weights, dtype=np.float64)
    if num_parts < 1:
        raise SimulationError("need at least one partition")
    n = weights.size
    if n == 0:
        return [(0, 0)] * num_parts
    prefix = np.concatenate(([0.0], np.cumsum(weights)))
    total = prefix[-1]
    bounds = [0]
    for k in range(1, num_parts):
        target = total * k / num_parts
        bounds.append(int(np.searchsorted(prefix, target, side="left")))
    bounds.append(n)
    # enforce monotonicity for degenerate weight distributions
    for k in range(1, len(bounds)):
        bounds[k] = max(bounds[k], bounds[k - 1])
    return [(bounds[k], bounds[k + 1]) for k in range(num_parts)]


@dataclass
class ParallelResult:
    """Whole-chip outcome of a partitioned run."""

    shard_cycles: list[float]
    bandwidth_floor: float
    total_cycles: float

    @property
    def imbalance(self) -> float:
        """max shard / mean shard — 1.0 is perfectly balanced."""
        mean = float(np.mean(self.shard_cycles))
        return max(self.shard_cycles) / mean if mean else 1.0


def run_parallel(shard_runner: Callable[[int, int], float],
                 row_weights, machine: MachineConfig, *,
                 total_mem_bytes: float = 0.0,
                 num_cores: int | None = None) -> ParallelResult:
    """Estimate the whole-chip runtime of a row-partitioned kernel.

    ``shard_runner(beg, end)`` returns the cycles one core needs for
    rows [beg, end) *given its fair bandwidth share*; the chip finishes
    when the slowest shard does, but never before the total traffic
    drains through the shared memory system.
    """
    cores = num_cores if num_cores is not None else machine.num_cores
    shards = partition_rows(row_weights, cores)
    shard_cycles = [shard_runner(beg, end) for beg, end in shards]
    bw_floor = total_mem_bytes / max(1e-9, machine.bytes_per_cycle())
    total = max(max(shard_cycles, default=0.0), bw_floor)
    return ParallelResult(shard_cycles=shard_cycles,
                          bandwidth_floor=bw_floor,
                          total_cycles=total)


def parallel_speedup(row_weights, num_cores: int) -> float:
    """Upper-bound speedup from nnz-balanced static partitioning alone
    (no memory effects): serial weight / slowest shard weight."""
    weights = np.asarray(row_weights, dtype=np.float64)
    if weights.size == 0:
        return float(num_cores)
    shards = partition_rows(weights, num_cores)
    prefix = np.concatenate(([0.0], np.cumsum(weights)))
    shard_weights = [prefix[end] - prefix[beg] for beg, end in shards]
    slowest = max(shard_weights)
    return float(prefix[-1] / slowest) if slowest else float(num_cores)


def core_scaling(machine: MachineConfig, per_core_cycles: float,
                 per_core_mem_bytes: float,
                 core_counts: Sequence[int]) -> dict[int, float]:
    """Scaling curve of a symmetric workload: with ``c`` cores, each
    core does ``1/c`` of the work but the shared bandwidth saturates —
    the knee the paper's bandwidth-bound TMU runs sit right on top of.

    Returns speedup over one core per core count.
    """
    one_core = max(per_core_cycles * machine.num_cores,
                   per_core_mem_bytes * machine.num_cores
                   / machine.bytes_per_cycle())
    out = {}
    for c in core_counts:
        if c < 1:
            raise SimulationError("core counts must be positive")
        compute = per_core_cycles * machine.num_cores / c
        bw = (per_core_mem_bytes * machine.num_cores
              / machine.bytes_per_cycle())
        out[c] = one_core / max(compute, bw)
    return out
