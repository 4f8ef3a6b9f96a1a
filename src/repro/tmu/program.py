"""The TMU programming API (paper Figure 8 and Section 4.4).

A :class:`Program` declares, layer by layer, the traversal units, data
streams, inter-layer configuration, marshaled operands and callbacks of
one tensor expression.  The SpMV P1 configuration of Figure 8 reads::

    prog = Program("spmv_p1", lanes=2)
    ptrs = prog.place_array(a.ptrs, 4, "a->ptrs")
    idxs = prog.place_array(a.idxs, 4, "a->idxs")
    vals = prog.place_array(a.vals, 8, "a->vals")
    bvec = prog.place_array(b, 8, "b")

    l0 = prog.add_layer(LayerMode.BCAST)           # BCast(row_fbrt)
    row = l0.dns_fbrt(beg=0, end=a.num_rows)
    ptbs = row.add_mem_stream(ptrs)                # row_ptbs
    ptes = row.add_mem_stream(ptrs, offset=1)      # row_ptes

    l1 = prog.add_layer(LayerMode.LOCKSTEP)        # LockStep(col0, col1)
    streams = []
    for lane in range(2):
        col = l1.rng_fbrt(beg=ptbs, end=ptes, offset=lane, stride=2)
        ci = col.add_mem_stream(idxs)
        nv = col.add_mem_stream(vals)
        vv = col.add_mem_stream(bvec, parent=ci)   # b[a->idxs[p]]
        streams.append((nv, vv))
    nnz_vals = l1.vec_operand([s[0] for s in streams])
    vec_vals = l1.vec_operand([s[1] for s in streams])
    l1.add_callback(Event.GITE, "ri", [nnz_vals, vec_vals])
    l1.add_callback(Event.GEND, "re", [])
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..errors import TMUConfigError
from ..sim.trace import AddressSpace
from .streams import MemoryArray, Stream
from .tg import LayerMode, MERGE_MODES, TraversalGroup
from .tu import PrimitiveKind, TraversalUnit

__all__ = ["Event", "LayerMode", "Program", "Layer", "ScalarOperand",
           "VectorOperand", "MaskOperand", "Callback"]


class Event(enum.Enum):
    """Traversal/merging events callbacks can register on (§4.3):
    begin, iteration, and end of a layer's group."""

    GBEG = "gbeg"
    GITE = "gite"
    GEND = "gend"


@dataclass(frozen=True)
class ScalarOperand:
    """One lane's stream value at the current step."""

    stream: Stream


@dataclass(frozen=True)
class VectorOperand:
    """Values of corresponding streams across a layer's lanes,
    marshaled as one vector register (``add_vec_str``)."""

    streams: tuple[Stream, ...]


@dataclass(frozen=True)
class MaskOperand:
    """The layer's multi-hot predicate (the ``msk`` stream)."""


@dataclass(frozen=True)
class IndexOperand:
    """The layer's current merged coordinate (merge modes) or step
    ordinal (lockstep) — the value the TG's sorter produced."""


Operand = ScalarOperand | VectorOperand | MaskOperand | IndexOperand


@dataclass(frozen=True)
class Callback:
    """A registered callback: ``add_callback(event, id, args)``."""

    event: Event
    callback_id: str
    operands: tuple[Operand, ...]


class Layer:
    """One TMU layer: TUs on lanes, a group mode, and callbacks."""

    def __init__(self, program: "Program", index: int,
                 mode: LayerMode) -> None:
        self.program = program
        self.index = index
        self.mode = mode
        self.tus: list[TraversalUnit] = []
        self.callbacks: list[Callback] = []
        self.vec_operands: list[VectorOperand] = []
        #: analytic element-volume hint for queue sizing (Section 5.5)
        self.volume_hint: float = 0.0
        #: Keep mode: which lane to keep (None = lowest active)
        self.keep_lane: int | None = None

    # -- TU declaration ------------------------------------------------

    def _next_lane(self, lane: int | None) -> int:
        if lane is None:
            lane = len(self.tus)
        if lane != len(self.tus):
            raise TMUConfigError(
                f"layer {self.index}: declare lanes in order "
                f"(expected lane {len(self.tus)}, got {lane})"
            )
        if lane >= self.program.lanes:
            raise TMUConfigError(
                f"layer {self.index}: lane {lane} exceeds the "
                f"{self.program.lanes}-lane engine"
            )
        return lane

    def dns_fbrt(self, beg: int, end: int, stride: int = 1,
                 lane: int | None = None) -> TraversalUnit:
        """``DnsFbrT(int beg, int end, int stride=1)``."""
        tu = TraversalUnit(self.index, self._next_lane(lane),
                           PrimitiveKind.DENSE, beg=beg, end=end,
                           stride=stride)
        self.tus.append(tu)
        return tu

    def rng_fbrt(self, beg: Stream, end: Stream, offset: int = 0,
                 stride: int = 1, lane: int | None = None) -> TraversalUnit:
        """``RngFbrT(stream beg, stream end, int offset=0, int stride=1)``."""
        tu = TraversalUnit(self.index, self._next_lane(lane),
                           PrimitiveKind.RANGE, beg=beg, end=end,
                           offset=offset, stride=stride)
        self.tus.append(tu)
        return tu

    def idx_fbrt(self, beg: Stream, size: int, offset: int = 0,
                 stride: int = 1, lane: int | None = None) -> TraversalUnit:
        """``IdxFbrT(stream beg, int size, int offset=0, int stride=1)``."""
        tu = TraversalUnit(self.index, self._next_lane(lane),
                           PrimitiveKind.INDEX, beg=beg, size=size,
                           offset=offset, stride=stride)
        self.tus.append(tu)
        return tu

    # -- operands and callbacks -----------------------------------------

    def vec_operand(self, streams) -> VectorOperand:
        """``add_vec_str``: marshal one stream per lane into a vector."""
        streams = tuple(streams)
        if not streams:
            raise TMUConfigError("a vector operand needs >= 1 stream")
        for s in streams:
            if s.tu is None or s.tu.layer != self.index:
                raise TMUConfigError(
                    "vector operands marshal streams of this layer only"
                )
        operand = VectorOperand(streams)
        self.vec_operands.append(operand)
        return operand

    def mask_operand(self) -> MaskOperand:
        """Marshal this layer's predicate (``msk``) to the core."""
        return MaskOperand()

    def index_operand(self) -> IndexOperand:
        """Marshal this layer's merged coordinate to the core."""
        return IndexOperand()

    def add_callback(self, event: Event, callback_id: str,
                     operands=()) -> None:
        """``add_callback(event, callback_id, args_list)`` (§4.3)."""
        if not isinstance(event, Event):
            raise TMUConfigError(f"unknown event {event!r}")
        self.callbacks.append(Callback(event, callback_id,
                                       tuple(operands)))

    def callbacks_for(self, event: Event) -> list[Callback]:
        return [cb for cb in self.callbacks if cb.event is event]

    def set_volume_hint(self, elements: float) -> None:
        """Expected number of elements this layer loads (queue sizing)."""
        self.volume_hint = float(elements)

    # -- finalization ----------------------------------------------------

    def build_group(self) -> TraversalGroup:
        group = TraversalGroup(self.index, self.mode, self.tus,
                               keep_lane=self.keep_lane)
        if self.mode in MERGE_MODES:
            for tu in self.tus:
                if tu.merge_key is tu.ite and tu.kind is (
                        PrimitiveKind.RANGE):
                    raise TMUConfigError(
                        f"{tu.name}: merging a compressed fiber requires "
                        "set_merge_key(<coordinate stream>)"
                    )
        return group


class Program:
    """A complete TMU configuration for one tensor expression."""

    def __init__(self, name: str, lanes: int = 8,
                 max_layers: int = 4) -> None:
        if lanes < 1:
            raise TMUConfigError("a program needs at least one lane")
        self.name = name
        self.lanes = lanes
        self.max_layers = max_layers
        self.layers: list[Layer] = []
        self._space = AddressSpace()
        self.arrays: list[MemoryArray] = []

    def place_array(self, data, elem_bytes: int,
                    name: str = "") -> MemoryArray:
        """Register an operand array: the engine loads from it and the
        arbiter sees its (virtual) addresses."""
        data = np.ascontiguousarray(data)
        base = self._space.place(data.size * elem_bytes)
        array = MemoryArray(data=data, base_address=base,
                            elem_bytes=elem_bytes, name=name)
        self.arrays.append(array)
        return array

    def add_layer(self, mode: LayerMode) -> Layer:
        if len(self.layers) >= self.max_layers:
            raise TMUConfigError(
                f"program exceeds the {self.max_layers}-layer engine"
            )
        layer = Layer(self, len(self.layers), mode)
        self.layers.append(layer)
        return layer

    def validate(self) -> None:
        """Configuration-time checks the hardware would reject."""
        if not self.layers:
            raise TMUConfigError("program has no layers")
        for layer in self.layers:
            if not layer.tus:
                raise TMUConfigError(f"layer {layer.index} has no TUs")
            n_streams = len(layer.tus[0].streams)
            for tu in layer.tus[1:]:
                if len(tu.streams) != n_streams:
                    raise TMUConfigError(
                        f"layer {layer.index}: all TUs of a layer must "
                        "instantiate the same streams (Section 5.5)"
                    )
            layer.build_group()  # raises on merge-key issues
        first = self.layers[0]
        if first.mode in MERGE_MODES or first.mode is LayerMode.LOCKSTEP:
            pass  # parallel root layers are fine (all lanes start active)
        for layer in self.layers[1:]:
            for tu in layer.tus:
                for bound in (tu.beg, tu.end):
                    if isinstance(bound, Stream) and bound.tu is not None:
                        if bound.tu.layer >= layer.index:
                            raise TMUConfigError(
                                f"{tu.name}: bounds must come from a "
                                "leftward layer"
                            )

    def streams_per_layer(self) -> list[int]:
        return [len(layer.tus[0].streams) if layer.tus else 0
                for layer in self.layers]

    def volume_hints(self) -> list[float]:
        return [layer.volume_hint for layer in self.layers]
