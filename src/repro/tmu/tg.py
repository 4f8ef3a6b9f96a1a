"""Traversal Groups: per-layer merge/co-iteration FSMs (Section 5.2).

A TG owns the TUs of one layer and iterates them under one of the
inter-layer configurations of Table 3:

=========  ==========================================================
Single     iterates a single lane
BCast      broadcasts a single lane's data to a parallel group below
Keep       keeps one lane out of a parallel group
DisjMrg    joins (unions) the lanes of the layer
ConjMrg    intersects the lanes of the layer
LockStep   co-iterates the lanes of the layer positionally
=========  ==========================================================

Each ``gite`` produces a :class:`GroupStep` carrying the multi-hot
predicate (the ``msk`` stream) and the consumed lanes' slots; the
hierarchical-evaluation rule of the paper — only lanes active in the
*previous* layer's predicate participate — is implemented by the
``active_mask`` handed down by the engine.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .. import obs
from ..errors import TMUConfigError, TMURuntimeError
from .tu import Slot, TraversalUnit


class LayerMode(enum.Enum):
    """Inter-layer configurations (Table 3)."""

    SINGLE = "Single"
    BCAST = "BCast"
    KEEP = "Keep"
    DISJ_MRG = "DisjMrg"
    CONJ_MRG = "ConjMrg"
    LOCKSTEP = "LockStep"


#: modes that merge coordinates (need a merge key per lane)
MERGE_MODES = (LayerMode.DISJ_MRG, LayerMode.CONJ_MRG)


class TgState(enum.Enum):
    """TG FSM states (Section 5.2)."""

    GBEG = "gbeg"
    GITE = "gite"
    GEND = "gend"


@dataclass
class GroupStep:
    """One ``gite`` of a TG.

    Attributes
    ----------
    mask:
        Multi-hot predicate over the layer's lanes (bit k = lane k
        consumed an element this step).
    index:
        The merged coordinate (merge modes) or the step ordinal
        (lockstep/single).
    slots:
        Per-lane consumed slot, ``None`` for lanes outside the mask.
    emitted:
        ConjMrg only: whether this step pushed a 0 token (all-true
        predicate).  Non-emitting steps advance lanes without output.
    """

    mask: int
    index: object
    slots: list[Slot | None]
    emitted: bool = True

    def active_lanes(self) -> list[int]:
        return [k for k in range(len(self.slots)) if self.mask & (1 << k)]


class TraversalGroup:
    """The TG of one TMU layer."""

    def __init__(self, layer: int, mode: LayerMode,
                 tus: list[TraversalUnit],
                 keep_lane: int | None = None) -> None:
        if not tus:
            raise TMUConfigError(f"layer {layer} has no traversal units")
        if mode in (LayerMode.SINGLE, LayerMode.BCAST) and len(tus) != 1:
            raise TMUConfigError(
                f"{mode.value} layers use exactly one lane, got {len(tus)}"
            )
        if keep_lane is not None and not 0 <= keep_lane < len(tus):
            raise TMUConfigError(
                f"keep_lane {keep_lane} outside the layer's {len(tus)} lanes"
            )
        self.layer = layer
        self.mode = mode
        self.tus = tus
        self.keep_lane = keep_lane
        self.state = TgState.GBEG
        self.gite_count = 0
        self.gend_count = 0
        self.merge_steps = 0  # gite steps of merging/co-iterating modes
        self._observed: dict[str, int] = {}  # telemetry deltas

    @property
    def num_lanes(self) -> int:
        return len(self.tus)

    def observe(self, view) -> None:
        """Publish this TG's counters (and its TUs') into a telemetry
        registry view rooted at the layer."""
        from ..obs import add_deltas

        add_deltas(view, {
            "gite": self.gite_count,
            "gend": self.gend_count,
            "merge_steps": self.merge_steps,
        }, self._observed)
        view.gauge("lanes").set(self.num_lanes)
        for tu in self.tus:
            tu.observe(view)

    def iterate(self, active_mask: int, engine=None):
        """Generate the :class:`GroupStep` sequence of one activation.

        ``active_mask`` selects which lanes participate (hierarchical
        evaluation); the caller must already have ``begin``-ed those
        lanes' TUs.
        """
        self.state = TgState.GITE
        if self.mode in (LayerMode.SINGLE, LayerMode.BCAST):
            yield from self._iterate_single(active_mask, engine)
        elif self.mode is LayerMode.KEEP:
            yield from self._iterate_keep(active_mask, engine)
        elif self.mode is LayerMode.LOCKSTEP:
            yield from self._iterate_lockstep(active_mask, engine)
        elif self.mode is LayerMode.DISJ_MRG:
            yield from self._iterate_disjunctive(active_mask, engine)
        elif self.mode is LayerMode.CONJ_MRG:
            yield from self._iterate_conjunctive(active_mask, engine)
        else:  # pragma: no cover - exhaustive enum
            raise TMURuntimeError(f"unknown layer mode {self.mode}")
        self.state = TgState.GEND
        self.gend_count += 1

    # -- mode implementations -----------------------------------------

    def _active(self, active_mask: int) -> list[int]:
        lanes = [k for k in range(len(self.tus)) if active_mask & (1 << k)]
        if not lanes:
            raise TMURuntimeError(
                f"layer {self.layer} activated with an empty lane mask"
            )
        return lanes

    def _iterate_single(self, active_mask: int, engine):
        tu = self.tus[0]
        step_no = 0
        while True:
            slot = tu.peek(engine)
            if slot is None:
                return
            tu.consume()
            self.gite_count += 1
            yield GroupStep(mask=1, index=step_no, slots=[slot])
            step_no += 1

    def _iterate_keep(self, active_mask: int, engine):
        """Keep one lane out of a parallel group: iterate only the
        configured (default: lowest active) lane; the others are
        dropped for this layer."""
        if self.keep_lane is not None:
            keep = self.keep_lane
        else:
            keep = self._active(active_mask)[0]
        tu = self.tus[keep]
        step_no = 0
        slots_template: list[Slot | None] = [None] * len(self.tus)
        while True:
            slot = tu.peek(engine)
            if slot is None:
                return
            tu.consume()
            self.gite_count += 1
            slots = list(slots_template)
            slots[keep] = slot
            yield GroupStep(mask=1 << keep, index=step_no, slots=slots)
            step_no += 1

    def _iterate_lockstep(self, active_mask: int, engine):
        """Co-iterate all active lanes; the predicate marks lanes not
        yet done (Section 5.2, lockstep rule)."""
        lanes = self._active(active_mask)
        step_no = 0
        while True:
            mask = 0
            slots: list[Slot | None] = [None] * len(self.tus)
            for k in lanes:
                slot = self.tus[k].peek(engine)
                if slot is not None:
                    mask |= 1 << k
                    slots[k] = self.tus[k].consume()
            if mask == 0:
                return
            self.gite_count += 1
            self.merge_steps += 1
            yield GroupStep(mask=mask, index=step_no, slots=slots)
            step_no += 1

    def _iterate_disjunctive(self, active_mask: int, engine):
        """Union-merge: each gite consumes every active lane holding the
        minimum coordinate and sets its predicate bit.

        The merger assumes sorted fibers (Section 2.4); a coordinate
        regression is a protocol violation and raises instead of
        silently producing an unsorted output.
        """
        lanes = self._active(active_mask)
        last = None
        while True:
            heads: dict[int, Slot] = {}
            for k in lanes:
                slot = self.tus[k].peek(engine)
                if slot is not None:
                    heads[k] = slot
            if not heads:
                return
            current = min(self.tus[k].key_of(s) for k, s in heads.items())
            if last is not None and current < last:
                raise TMURuntimeError(
                    f"layer {self.layer}: unsorted fiber handed to "
                    f"DisjMrg (coordinate {current} after {last})"
                )
            last = current
            mask = 0
            slots: list[Slot | None] = [None] * len(self.tus)
            for k, slot in heads.items():
                if self.tus[k].key_of(slot) == current:
                    mask |= 1 << k
                    slots[k] = self.tus[k].consume()
            self.gite_count += 1
            self.merge_steps += 1
            yield GroupStep(mask=mask, index=current, slots=slots)

    def _iterate_conjunctive(self, active_mask: int, engine):
        """Intersection-merge: lanes holding the minimum coordinate are
        consumed every cycle, but a step is *emitted* (0 token) only on
        an all-true predicate; the merge ends when any active lane is
        exhausted."""
        lanes = self._active(active_mask)
        full = 0
        for k in lanes:
            full |= 1 << k
        tracer = obs.tracer()
        tracing = tracer.enabled
        track = f"tmu.tg.layer{self.layer}" if tracing else ""
        while True:
            heads: dict[int, Slot] = {}
            for k in lanes:
                slot = self.tus[k].peek(engine)
                if slot is None:
                    return  # any lane exhausted ends a conjunction
                heads[k] = slot
            current = min(self.tus[k].key_of(s) for k, s in heads.items())
            mask = 0
            slots: list[Slot | None] = [None] * len(self.tus)
            for k, slot in heads.items():
                if self.tus[k].key_of(slot) == current:
                    mask |= 1 << k
                    slots[k] = self.tus[k].consume()
            self.merge_steps += 1
            if mask == full:
                self.gite_count += 1
                yield GroupStep(mask=mask, index=current, slots=slots)
            elif tracing:
                # non-emitting advance: hardware pushes no token — this
                # is the conjunctive merge's stall signal
                tracer.instant(track, "stall_advance", args={"mask": mask})
