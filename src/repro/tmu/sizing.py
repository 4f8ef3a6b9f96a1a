"""TU queue sizing (paper Section 5.5).

All TUs of a lane share that lane's storage (2 KB in the evaluated
configuration); queues are allocated at configuration time with an
analytical model that gives each layer space proportional to the data
volume it will load — rightmost layers traverse more elements than
leftmost ones, so they get deeper queues.

The volume estimate comes from the program's per-layer element hints
(e.g. ``num_rows`` for an outer dense layer, ``nnz`` for an inner
compressed layer), which the paper derives "from the number of nnzs per
fiber of the tensor".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import TMUConfigError

#: bytes one queue entry occupies (an 8-byte element)
ENTRY_BYTES = 8
#: minimum depth for any allocated queue (double buffering floor)
MIN_ENTRIES = 2


@dataclass(frozen=True)
class QueueSizing:
    """Result of the allocation: queue depth per layer (identical for
    every lane and every stream of a layer, Section 5.5)."""

    entries_per_layer: tuple[int, ...]
    per_lane_bytes_used: int
    per_lane_bytes_available: int

    @property
    def utilization(self) -> float:
        if not self.per_lane_bytes_available:
            return 0.0
        return self.per_lane_bytes_used / self.per_lane_bytes_available


def size_queues(streams_per_layer: list[int],
                volume_per_layer: list[float],
                per_lane_storage_bytes: int) -> QueueSizing:
    """Allocate per-lane storage across layers.

    Parameters
    ----------
    streams_per_layer:
        How many data streams each layer's TU instantiates (all TUs of
        a layer instantiate the same streams).
    volume_per_layer:
        Estimated elements each layer loads over the run (the analytic
        weight); zeros are allowed for unused layers.
    per_lane_storage_bytes:
        The lane's storage budget (2048 in Table 5).
    """
    if len(streams_per_layer) != len(volume_per_layer):
        raise TMUConfigError("layer stream/volume hints must align")
    if per_lane_storage_bytes <= 0:
        raise TMUConfigError("per-lane storage must be positive")

    active = [k for k, s in enumerate(streams_per_layer) if s > 0]
    if not active:
        raise TMUConfigError("no active layers to size")

    # Floor allocation first.
    entries = [0] * len(streams_per_layer)
    used = 0
    for k in active:
        entries[k] = MIN_ENTRIES
        used += MIN_ENTRIES * streams_per_layer[k] * ENTRY_BYTES
    if used > per_lane_storage_bytes:
        raise TMUConfigError(
            f"program needs {used} B/lane just for minimum queues, "
            f"only {per_lane_storage_bytes} B available"
        )

    # Distribute the remainder proportionally to load volume.
    remaining = per_lane_storage_bytes - used
    total_volume = sum(max(0.0, volume_per_layer[k]) for k in active)
    if total_volume > 0:
        for k in active:
            weight = max(0.0, volume_per_layer[k]) / total_volume
            budget = int(remaining * weight)
            extra = budget // (streams_per_layer[k] * ENTRY_BYTES)
            entries[k] += extra
    else:
        share = remaining // len(active)
        for k in active:
            entries[k] += share // (streams_per_layer[k] * ENTRY_BYTES)

    used = sum(entries[k] * streams_per_layer[k] * ENTRY_BYTES
               for k in active)
    return QueueSizing(
        entries_per_layer=tuple(entries),
        per_lane_bytes_used=used,
        per_lane_bytes_available=per_lane_storage_bytes,
    )
