"""Chunk-level pipeline simulation of the decoupled TMU/core pair.

:func:`repro.sim.machine.run_tmu` composes producer and consumer with a
closed-form ``max(...) + fill``.  On uniform chunks the two agree when
the core is the bottleneck; when the TMU is, the closed form's fill is
one produce time where this simulation's tail is one consume time.
This module simulates the double-buffered outQ *per chunk* (paper
Section 5.3: "the TMU populates another outQ chunk, overlapping data
loading and computation"), which additionally captures:

* irregular chunk times (e.g. a power-law matrix whose heavy rows make
  some chunks much more expensive than others);
* producer stalls when both buffers are full (the core is behind);
* consumer stalls when no chunk is ready (the engine is behind).

No figure uses it: its only consumers are ``tests/test_sim_pipeline.py``
and ``examples/outq_pipeline.py``.  The closed form stays the model
behind every sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import SimulationError


@dataclass
class PipelineResult:
    """Timeline summary of one producer/consumer run."""

    total_cycles: float
    producer_busy: float
    consumer_busy: float
    producer_stalled: float      # waiting for a free buffer
    consumer_stalled: float      # waiting for a ready chunk
    chunk_completions: list[float]

    @property
    def producer_utilization(self) -> float:
        return self.producer_busy / self.total_cycles if (
            self.total_cycles) else 0.0

    @property
    def consumer_utilization(self) -> float:
        return self.consumer_busy / self.total_cycles if (
            self.total_cycles) else 0.0

    @property
    def read_to_write(self) -> float:
        """Mean consume time / mean produce time — Figure 13's metric,
        measured instead of assumed."""
        return self.consumer_busy / self.producer_busy if (
            self.producer_busy) else float("inf")


def simulate_outq_pipeline(produce_cycles: Sequence[float],
                           consume_cycles: Sequence[float], *,
                           buffers: int = 2) -> PipelineResult:
    """Simulate a producer filling chunks and a consumer draining them
    through ``buffers`` outQ slots (2 = the paper's double buffering).

    ``produce_cycles[k]`` / ``consume_cycles[k]`` are the times to
    write / process chunk k.  Returns the full timeline summary.
    """
    produce = np.asarray(produce_cycles, dtype=np.float64)
    consume = np.asarray(consume_cycles, dtype=np.float64)
    if produce.shape != consume.shape:
        raise SimulationError("chunk arrays must align")
    if np.any(produce < 0) or np.any(consume < 0):
        raise SimulationError("chunk times must be non-negative")
    if buffers < 1:
        raise SimulationError("need at least one outQ buffer")
    n = produce.size
    if n == 0:
        return PipelineResult(0.0, 0.0, 0.0, 0.0, 0.0, [])

    # produce_done[k]: when chunk k is fully written.
    # consume_done[k]: when the core finishes processing it.
    produce_done = np.zeros(n)
    consume_done = np.zeros(n)
    producer_stall = 0.0
    consumer_stall = 0.0
    for k in range(n):
        # The producer may start chunk k once it finished k-1 AND a
        # buffer is free, i.e. chunk k - buffers has been consumed.
        start = produce_done[k - 1] if k else 0.0
        if k >= buffers:
            freed = consume_done[k - buffers]
            producer_stall += max(0.0, freed - start)
            start = max(start, freed)
        produce_done[k] = start + produce[k]

        # The consumer starts chunk k when it is written and the core
        # finished the previous chunk.
        ready = produce_done[k]
        prev = consume_done[k - 1] if k else 0.0
        consumer_stall += max(0.0, ready - prev)
        consume_done[k] = max(ready, prev) + consume[k]

    return PipelineResult(
        total_cycles=float(consume_done[-1]),
        producer_busy=float(produce.sum()),
        consumer_busy=float(consume.sum()),
        producer_stalled=float(producer_stall),
        consumer_stalled=float(consumer_stall),
        chunk_completions=consume_done.tolist(),
    )


def chunk_times_from_totals(total_produce: float, total_consume: float,
                            num_chunks: int, *,
                            cv: float = 0.0,
                            seed: int = 0) -> tuple[np.ndarray,
                                                    np.ndarray]:
    """Split aggregate producer/consumer times into per-chunk times
    with coefficient of variation ``cv`` (0 = uniform) — the bridge
    from the closed-form model's aggregates to the per-chunk
    simulation."""
    if num_chunks < 1:
        raise SimulationError("need at least one chunk")
    if cv < 0:
        raise SimulationError("cv must be non-negative")
    rng = np.random.default_rng(seed)

    def split(total: float) -> np.ndarray:
        if cv == 0.0 or num_chunks == 1:
            return np.full(num_chunks, total / num_chunks)
        mean = total / num_chunks
        sigma = np.sqrt(np.log(1.0 + cv * cv))
        mu = np.log(mean) - sigma * sigma / 2.0
        raw = rng.lognormal(mu, sigma, num_chunks)
        return raw * (total / raw.sum())

    return split(total_produce), split(total_consume)
