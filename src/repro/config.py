"""Architectural parameter dataclasses (paper Table 5).

The defaults model the evaluated system: 8 Neoverse-N1-like out-of-order
cores at 2.4 GHz, three cache levels, 4 HBM2e channels over a 4x4 mesh
NoC, and one 8-lane TMU per core with 2 KB of per-lane storage.

Two additional host presets (:func:`a64fx_like` and :func:`graviton3_like`)
reproduce the motivation study of Figure 3, which contrasts a
bandwidth-rich but OoO-weak HPC part against a cache-rich data-center
part.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import SimulationError


@dataclass(frozen=True)
class CacheConfig:
    """One cache level.

    ``latency`` is the data-access latency in cycles; ``mshrs`` bounds the
    number of outstanding misses (and therefore the memory-level
    parallelism the level can expose).
    """

    size_bytes: int
    ways: int
    latency: int
    mshrs: int
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.size_bytes % (self.ways * self.line_bytes):
            raise SimulationError(
                f"cache size {self.size_bytes} not divisible into "
                f"{self.ways}-way sets of {self.line_bytes}B lines"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)


@dataclass(frozen=True)
class CoreConfig:
    """An out-of-order core, in the terms the interval model needs."""

    name: str = "neoverse-n1-like"
    freq_ghz: float = 2.4
    commit_width: int = 4
    rob_entries: int = 224
    load_queue: int = 96
    store_queue: int = 96
    vector_bits: int = 512
    branch_miss_penalty: int = 14
    #: fraction of data-dependent branches the predictor still gets right.
    datadep_branch_accuracy: float = 0.5


@dataclass(frozen=True)
class MemoryConfig:
    """Off-chip memory: HBM2e channels with FR-FCFS-like behaviour."""

    channels: int = 4
    channel_gbps: float = 37.5
    latency_cycles: int = 110

    @property
    def total_gbps(self) -> float:
        return self.channels * self.channel_gbps


@dataclass(frozen=True)
class NocConfig:
    """2D mesh network-on-chip (AMBA 5 CHI-style)."""

    mesh_x: int = 4
    mesh_y: int = 4
    router_cycles: int = 1
    link_cycles: int = 1

    def average_hops(self) -> float:
        """Mean Manhattan distance between two uniformly random nodes."""
        nx, ny = self.mesh_x, self.mesh_y
        return (nx * nx - 1) / (3.0 * nx) + (ny * ny - 1) / (3.0 * ny)

    def average_latency(self) -> float:
        hops = self.average_hops()
        return hops * (self.router_cycles + self.link_cycles)


@dataclass(frozen=True)
class TMUConfig:
    """The TMU engine attached to each core (Table 5 bottom row)."""

    lanes: int = 8
    layers: int = 4
    per_lane_storage_bytes: int = 2048
    outstanding_requests: int = 128
    outq_chunk_bytes: int = 4096
    #: element width the TMU marshals (doubles).
    element_bytes: int = 8

    @property
    def total_storage_bytes(self) -> int:
        return self.lanes * self.per_lane_storage_bytes

    @property
    def vector_elems(self) -> int:
        """How many elements a full set of lanes packs into one operand."""
        return self.lanes


@dataclass(frozen=True)
class MachineConfig:
    """A full simulated machine: cores, caches, NoC, memory, and TMUs."""

    num_cores: int = 8
    core: CoreConfig = field(default_factory=CoreConfig)
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 4, 2, 32)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(512 * 1024, 8, 8, 64)
    )
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig(8 * 1024 * 1024, 16, 12, 128)
    )
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    noc: NocConfig = field(default_factory=NocConfig)
    tmu: TMUConfig = field(default_factory=TMUConfig)

    def with_tmu(self, **kwargs) -> "MachineConfig":
        """Return a copy with TMU parameters replaced."""
        return replace(self, tmu=replace(self.tmu, **kwargs))

    def with_core(self, **kwargs) -> "MachineConfig":
        """Return a copy with core parameters replaced."""
        return replace(self, core=replace(self.core, **kwargs))

    def memory_latency_cycles(self) -> float:
        """Average load-to-use latency of an LLC miss, in core cycles."""
        return (
            self.llc.latency
            + self.noc.average_latency()
            + self.memory.latency_cycles
        )

    def bytes_per_cycle(self) -> float:
        """Peak off-chip bandwidth expressed in bytes per core cycle,
        aggregated over the whole chip."""
        return self.memory.total_gbps / self.core.freq_ghz

    def bytes_per_cycle_per_core(self) -> float:
        """Fair share of off-chip bandwidth for one core."""
        return self.bytes_per_cycle() / self.num_cores


def default_machine() -> MachineConfig:
    """The evaluated system of Table 5."""
    return MachineConfig()


def _scale_cache(cache: CacheConfig, divisor: int) -> CacheConfig:
    """Shrink a cache's capacity by ``divisor`` (latency and MSHRs are
    per-access core resources and stay put), flooring at four sets."""
    floor = cache.ways * cache.line_bytes * 4
    size = max(floor, cache.size_bytes // divisor)
    # round down to a power-of-two set count
    sets = size // (cache.ways * cache.line_bytes)
    sets = 1 << (sets.bit_length() - 1)
    return replace(cache, size_bytes=sets * cache.ways * cache.line_bytes)


def scale_caches(machine: MachineConfig, divisor: int) -> MachineConfig:
    """Return a copy of ``machine`` with cache capacities divided by
    ``divisor``.

    The paper's inputs are 10M+ non-zeros — far larger than the 8 MiB
    LLC.  The pure-Python simulation runs scaled-down inputs, so cache
    capacities must shrink by the same factor to preserve the
    footprint-to-capacity ratios that determine which operands fit
    where (e.g. whether SpMV's gathered vector is LLC-resident).  See
    DESIGN.md, substitution table.
    """
    if divisor < 1:
        raise SimulationError("cache scale divisor must be >= 1")
    return replace(
        machine,
        l1d=_scale_cache(machine.l1d, divisor),
        l2=_scale_cache(machine.l2, divisor),
        llc=_scale_cache(machine.llc, divisor),
    )


#: input-scale → cache divisor, mirroring generators.suite._SCALE_DIVISOR
CACHE_SCALE_DIVISOR = {"small": 256, "medium": 32, "paper": 1}


def experiment_machine(scale: str = "small",
                       base: MachineConfig | None = None) -> MachineConfig:
    """The Table 5 machine, cache-scaled to match an input-suite scale."""
    machine = base if base is not None else default_machine()
    try:
        divisor = CACHE_SCALE_DIVISOR[scale]
    except KeyError:
        raise SimulationError(
            f"unknown scale {scale!r}; pick from {sorted(CACHE_SCALE_DIVISOR)}"
        ) from None
    return scale_caches(machine, divisor)


def a64fx_like() -> MachineConfig:
    """Fujitsu A64FX-flavoured host for the Figure 3 motivation study.

    More bandwidth per core (1 TB/s for 48 cores), small caches, and a
    narrow out-of-order window.
    """
    return MachineConfig(
        num_cores=48,
        core=CoreConfig(
            name="a64fx-like",
            freq_ghz=2.2,
            commit_width=4,
            rob_entries=128,
            load_queue=40,
            store_queue=24,
            vector_bits=512,
            branch_miss_penalty=18,
            datadep_branch_accuracy=0.4,
        ),
        l1d=CacheConfig(64 * 1024, 4, 5, 16),
        l2=CacheConfig(8 * 1024 * 1024, 16, 37, 64),
        # A64FX has no L3; model a thin shared level mirroring the L2 slice
        # an individual core can effectively use.
        llc=CacheConfig(8 * 1024 * 1024, 16, 47, 64),
        memory=MemoryConfig(channels=32, channel_gbps=32.0, latency_cycles=140),
        noc=NocConfig(mesh_x=6, mesh_y=8),
    )


def graviton3_like() -> MachineConfig:
    """AWS Graviton 3-flavoured host for the Figure 3 motivation study.

    Less bandwidth per core (300 GB/s for 64 cores) but beefier cores and
    much larger caches.
    """
    return MachineConfig(
        num_cores=64,
        core=CoreConfig(
            name="graviton3-like",
            freq_ghz=2.6,
            commit_width=8,
            rob_entries=512,
            load_queue=128,
            store_queue=72,
            vector_bits=256,
            branch_miss_penalty=12,
            datadep_branch_accuracy=0.55,
        ),
        l1d=CacheConfig(64 * 1024, 4, 4, 24),
        l2=CacheConfig(1024 * 1024, 8, 13, 48),
        llc=CacheConfig(32 * 1024 * 1024, 16, 31, 192),
        memory=MemoryConfig(channels=8, channel_gbps=37.5, latency_cycles=120),
        noc=NocConfig(mesh_x=8, mesh_y=8),
    )
