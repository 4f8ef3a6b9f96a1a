"""The TMU execution engine.

Runs a :class:`repro.tmu.program.Program` exactly: the loop nest is
executed layer by layer (recursively — outQ serialization across TGs in
loop-nest order falls out by construction, Section 5.3), TUs produce
stream slots, TGs merge/co-iterate lanes, callbacks fire in program
order with their marshaled operands, and the arbiter logs every memory
touch at cache-line granularity.

The engine is the golden reference for the fast analytic models in
:mod:`repro.programs`: tests assert that iteration counts, merge steps,
outQ records and traversal bytes agree between the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .. import obs
from ..config import TMUConfig
from ..errors import TMUConfigError, TMURuntimeError
from .arbiter import MemoryArbiter
from .outq import MaskValue, OutQueue, OutQueueRecord
from .program import (
    Callback,
    Event,
    IndexOperand,
    MaskOperand,
    Program,
    ScalarOperand,
    VectorOperand,
)
from .sizing import QueueSizing, size_queues
from .streams import Stream
from .tg import GroupStep, LayerMode, TraversalGroup
from .tu import TraversalUnit

#: parent modes that hand the same slot to every child lane
_BROADCAST_LIKE = (None, LayerMode.SINGLE, LayerMode.BCAST, LayerMode.KEEP)

Handler = Callable[[OutQueueRecord], None]


@dataclass
class RunStats:
    """Everything a run measured."""

    layer_iterations: list[int] = field(default_factory=list)
    layer_merge_steps: list[int] = field(default_factory=list)
    layer_activations: list[int] = field(default_factory=list)
    outq_records: int = 0
    outq_bytes: int = 0
    outq_chunks: int = 0
    memory_touches: int = 0
    memory_lines: int = 0
    memory_bytes: int = 0
    callback_counts: dict[str, int] = field(default_factory=dict)
    queue_sizing: QueueSizing | None = None

    @property
    def total_iterations(self) -> int:
        return sum(self.layer_iterations)


class TmuEngine:
    """Execute a TMU program functionally, collecting statistics."""

    def __init__(self, program: Program,
                 config: TMUConfig | None = None) -> None:
        program.validate()
        self.program = program
        self.config = config or TMUConfig()
        if program.lanes > self.config.lanes:
            raise TMUConfigError(
                f"program uses {program.lanes} lanes but the engine has "
                f"{self.config.lanes}"
            )
        if len(program.layers) > self.config.layers:
            raise TMUConfigError(
                f"program uses {len(program.layers)} layers but the "
                f"engine has {self.config.layers}"
            )
        volumes = program.volume_hints()
        if not any(volumes):
            # Fall back to a geometric guess: each layer loads 8x its
            # parent (the paper sizes from per-fiber nnz counts).
            volumes = [8.0 ** k for k in range(len(program.layers))]
        self.sizing = size_queues(program.streams_per_layer(), volumes,
                                  self.config.per_lane_storage_bytes)
        self.arbiter = MemoryArbiter()
        self.outq = OutQueue(self.config.outq_chunk_bytes)
        self.groups: list[TraversalGroup] = [
            layer.build_group() for layer in program.layers
        ]
        self._handlers: dict[str, Handler] = {}
        self._default_handler: Handler | None = None
        self._tracer = obs.NULL_TRACER
        self._tracing = False
        self._trace_run_start = 0

    # -- operand resolution ------------------------------------------------

    def _resolve_operands(self, callback: Callback, layer_idx: int,
                          step: GroupStep | None,
                          envs: list[dict[Stream, object]],
                          active_mask: int) -> tuple:
        resolved = []
        first_lane = (active_mask & -active_mask).bit_length() - 1
        for operand in callback.operands:
            if isinstance(operand, MaskOperand):
                resolved.append(MaskValue(step.mask if step else 0))
            elif isinstance(operand, IndexOperand):
                resolved.append(step.index if step else -1)
            elif isinstance(operand, VectorOperand):
                values = []
                for s in operand.streams:
                    lane = s.tu.lane if s.tu else 0
                    slot = step.slots[lane] if step else None
                    values.append(slot[s] if slot is not None else 0.0)
                resolved.append(tuple(values))
            elif isinstance(operand, ScalarOperand):
                s = operand.stream
                if s.tu is not None and s.tu.layer == layer_idx and step:
                    slot = step.slots[s.tu.lane]
                    resolved.append(slot[s] if slot is not None else 0.0)
                else:
                    env = envs[first_lane] if envs else {}
                    if s not in env:
                        raise TMURuntimeError(
                            f"operand {s.name} not available at layer "
                            f"{layer_idx}"
                        )
                    resolved.append(env[s])
            else:  # pragma: no cover - exhaustive
                raise TMURuntimeError(f"unknown operand {operand!r}")
        return tuple(resolved)

    def _fire(self, callback: Callback, layer_idx: int,
              step: GroupStep | None,
              envs: list[dict[Stream, object]], active_mask: int) -> None:
        record = OutQueueRecord(
            callback_id=callback.callback_id,
            operands=self._resolve_operands(callback, layer_idx, step,
                                            envs, active_mask),
            mask=step.mask if step else 0,
            layer=layer_idx,
        )
        self.outq.push(record)
        self._stats.callback_counts[callback.callback_id] = (
            self._stats.callback_counts.get(callback.callback_id, 0) + 1
        )
        handler = self._handlers.get(callback.callback_id,
                                     self._default_handler)
        if handler is not None:
            handler(record)

    # -- execution -----------------------------------------------------------

    def run(self, handlers: dict[str, Handler] | Handler | None = None
            ) -> RunStats:
        """Execute the program.

        ``handlers`` maps callback IDs to callables receiving each
        :class:`OutQueueRecord` (the "core" side); a single callable
        handles every callback; ``None`` just fills the outQ.
        """
        if callable(handlers):
            self._default_handler = handlers
            self._handlers = {}
        else:
            self._handlers = dict(handlers or {})
            self._default_handler = None

        self._stats = RunStats(
            layer_iterations=[0] * len(self.groups),
            layer_merge_steps=[0] * len(self.groups),
            layer_activations=[0] * len(self.groups),
            queue_sizing=self.sizing,
        )
        # One virtual-clock tick per TG gite step; components hold the
        # tracer (or None) so dormant hooks cost one attribute read.
        tracer = obs.tracer()
        self._tracer = tracer
        self._tracing = tracer.enabled
        self._trace_run_start = tracer.now
        self.arbiter.tracer = tracer if self._tracing else None
        self.outq.tracer = tracer if self._tracing else None
        self._run_layer(0, None, None,
                        [dict() for _ in range(self.program.lanes)])

        stats = self._stats
        for idx, group in enumerate(self.groups):
            stats.layer_iterations[idx] = sum(
                tu.iterations for tu in group.tus)
            stats.layer_merge_steps[idx] = group.merge_steps
        stats.outq_records = self.outq.num_records
        stats.outq_bytes = self.outq.total_bytes
        stats.outq_chunks = self.outq.num_chunks
        stats.memory_touches = self.arbiter.total_touches
        stats.memory_lines = self.arbiter.total_line_requests
        stats.memory_bytes = self.arbiter.total_bytes()
        if self._tracing:
            self._trace_summaries(stats)
        return stats

    def _trace_summaries(self, stats: RunStats) -> None:
        """Emit end-of-run summary spans whose args come from the same
        counters as :class:`RunStats` — the stall report folds these, so
        its engine totals agree with the returned stats by construction
        (and, being last into the ring buffer, they survive capacity
        pressure)."""
        tracer = self._tracer
        start = self._trace_run_start
        dur = tracer.now - start
        for idx, group in enumerate(self.groups):
            stall = max(0, group.merge_steps - group.gite_count)
            tracer.span(f"tmu.tg.layer{idx}", "layer_summary", start, dur, {
                "layer": idx,
                "lanes": group.num_lanes,
                "activations": stats.layer_activations[idx],
                "iterations": stats.layer_iterations[idx],
                "merge_steps": stats.layer_merge_steps[idx],
                "stall_advances": stall,
            })
        tracer.span("tmu.arbiter", "summary", start, dur, {
            "touches": stats.memory_touches,
            "lines": stats.memory_lines,
            "bytes": stats.memory_bytes,
        })
        tracer.span("tmu.outq", "summary", start, dur, {
            "records": stats.outq_records,
            "bytes": stats.outq_bytes,
            "chunks": stats.outq_chunks,
        })
        tracer.span("tmu.engine", "run", start, dur, {
            "iterations": stats.total_iterations,
            "records": stats.outq_records,
            "memory_lines": stats.memory_lines,
        })

    def _child_mask(self, layer_idx: int,
                    parent_mode: LayerMode | None,
                    parent_step: GroupStep | None) -> int:
        layer = self.program.layers[layer_idx]
        configured = (1 << len(layer.tus)) - 1
        if layer.mode in (LayerMode.SINGLE, LayerMode.BCAST):
            return 1
        if parent_mode in _BROADCAST_LIKE or parent_step is None:
            return configured
        mask = parent_step.mask & configured
        if mask == 0:
            raise TMURuntimeError(
                f"layer {layer_idx}: no active lanes after hierarchical "
                "predicate"
            )
        return mask

    def _parent_lane_for(self, child_lane: int,
                         parent_mode: LayerMode | None,
                         parent_step: GroupStep | None) -> int | None:
        if parent_step is None:
            return None
        if parent_mode in (LayerMode.SINGLE, LayerMode.BCAST):
            return 0
        if parent_mode is LayerMode.KEEP:
            # the lowest lane in the parent step's mask
            mask = parent_step.mask
            return (mask & -mask).bit_length() - 1
        return child_lane

    def _resolve_bound(self, tu: TraversalUnit, bound,
                       env: dict[Stream, object]):
        if isinstance(bound, Stream):
            if bound not in env:
                raise TMURuntimeError(
                    f"{tu.name}: bound stream {bound.name} not produced "
                    "by an ancestor layer"
                )
            return int(env[bound])
        return int(bound)

    def _run_layer(self, layer_idx: int, parent_mode: LayerMode | None,
                   parent_step: GroupStep | None,
                   parent_envs: list[dict[Stream, object]]) -> None:
        layer = self.program.layers[layer_idx]
        group = self.groups[layer_idx]
        mask = self._child_mask(layer_idx, parent_mode, parent_step)
        self._stats.layer_activations[layer_idx] += 1

        envs: list[dict[Stream, object]] = [dict() for _ in (
            range(self.program.lanes))]
        for lane in range(len(layer.tus)):
            if not mask & (1 << lane):
                continue
            parent_lane = self._parent_lane_for(lane, parent_mode,
                                                parent_step)
            env = dict(parent_envs[parent_lane or 0])
            if parent_step is not None and parent_lane is not None:
                slot = parent_step.slots[parent_lane]
                if slot is not None:
                    env.update(slot.items())
            envs[lane] = env
            tu = layer.tus[lane]
            if tu.kind.name == "DENSE":
                beg, end = int(tu.beg), int(tu.end)
            else:
                beg = self._resolve_bound(tu, tu.beg, env)
                if tu.kind.name == "RANGE":
                    end = self._resolve_bound(tu, tu.end, env)
                else:  # INDEX
                    end = beg + int(tu.size)
            tu.begin(beg, end, fwd_values=env)

        for cb in layer.callbacks_for(Event.GBEG):
            self._fire(cb, layer_idx, None, envs, mask)

        tracing = self._tracing
        if tracing:
            tracer = self._tracer
            track = f"tmu.tg.layer{layer_idx}"
            t0 = tracer.now

        last = layer_idx == len(self.program.layers) - 1
        gite_cbs = layer.callbacks_for(Event.GITE)
        for step in group.iterate(mask, engine=self):
            if tracing:
                tracer.tick()
                tracer.instant(track, "gite", args={"mask": step.mask})
            for cb in gite_cbs:
                self._fire(cb, layer_idx, step, envs, mask)
            if not last:
                self._run_layer(layer_idx + 1, layer.mode, step, envs)

        for cb in layer.callbacks_for(Event.GEND):
            self._fire(cb, layer_idx, None, envs, mask)

        if tracing:
            tracer.span(track, "activation", t0, tracer.now - t0)
