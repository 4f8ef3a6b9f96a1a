"""The unit of work of the experiment runtime: one simulation cell.

A :class:`SimTask` captures everything that determines one
``(workload, input, scale, machine, variants)`` evaluation, gives it a
deterministic content hash, and knows how to evaluate itself into a
plain-JSON result record.  The record round-trips losslessly back into
the :class:`~repro.eval.workloads.WorkloadRun` the experiment drivers
consume, which is what makes on-disk caching and cross-process
execution transparent to every figure/table driver.

Two persistent caches layer under a task, keyed independently: the
*result* cache stores a cell's full record under its content hash
(salted with :data:`CODE_SALT`, so any model-code change invalidates
it), while the *walk* cache (:class:`repro.runtime.cache.WalkStore`)
stores raw hierarchy-walk outcomes keyed purely by cache geometry and
stream bytes — a walk is a pure function of those inputs, so it
survives code changes that only touch the timing model, and a cell
that misses the result cache can still reuse its walks.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property

from .. import __version__
from ..config import (
    CacheConfig,
    CoreConfig,
    MachineConfig,
    MemoryConfig,
    NocConfig,
    TMUConfig,
    experiment_machine,
)
from ..errors import WorkloadError
from ..sim.core import CycleBreakdown
from ..sim.machine import SystemResult

#: bump whenever the result-record layout or the timing model's output
#: semantics change; stale cache entries are invalidated by the salt.
RESULT_SCHEMA_VERSION = 1

#: the code-version salt mixed into every content hash.
CODE_SALT = f"repro/{__version__}/schema-{RESULT_SCHEMA_VERSION}"

#: the system variants a task may evaluate.
KNOWN_VARIANTS = ("baseline", "tmu", "single_lane", "imp")


# -------------------------------------------------- machine (de)serialization

def machine_to_dict(machine: MachineConfig) -> dict:
    """A ``MachineConfig`` as a plain nested dict (JSON-able, canonical):
    what ``dataclasses.asdict`` returns, key order included, built field
    by field.  Every leaf is an immutable scalar, so nothing needs the
    deep copy ``asdict`` makes of each one."""
    data = {}
    for f in fields(machine):
        value = getattr(machine, f.name)
        if is_dataclass(value):
            value = {g.name: getattr(value, g.name) for g in fields(value)}
        data[f.name] = value
    return data


def machine_from_dict(data: dict) -> MachineConfig:
    """Rebuild a ``MachineConfig`` from :func:`machine_to_dict` output.

    Keys of retired fields in older journals are ignored: the machine's
    TMU-engine and cache-model switches, and the TMU's unread element
    width."""
    tmu = {f.name for f in fields(TMUConfig)}
    return MachineConfig(
        num_cores=data["num_cores"],
        core=CoreConfig(**data["core"]),
        l1d=CacheConfig(**data["l1d"]),
        l2=CacheConfig(**data["l2"]),
        llc=CacheConfig(**data["llc"]),
        memory=MemoryConfig(**data["memory"]),
        noc=NocConfig(**data["noc"]),
        tmu=TMUConfig(**{k: v for k, v in data["tmu"].items()
                         if k in tmu}),
    )


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ------------------------------------------------------------------- SimTask

@dataclass(frozen=True)
class SimTask:
    """One simulation cell of an experiment sweep.

    ``machine=None`` resolves to the cache-scaled Table 5 machine for
    ``scale`` (the common case); sweeps that vary the architecture
    (Figure 14) or the host (Figure 3) pass an explicit machine.
    Every field decides the cell's result, and nothing else is in its
    content hash.
    """

    workload: str
    input_id: str
    scale: str = "small"
    variants: tuple[str, ...] = ("baseline", "tmu")
    machine: MachineConfig | None = None

    def __post_init__(self) -> None:
        unknown = set(self.variants) - set(KNOWN_VARIANTS)
        if unknown:
            raise WorkloadError(
                f"unknown variants {sorted(unknown)}; "
                f"known: {list(KNOWN_VARIANTS)}"
            )

    def resolved_machine(self) -> MachineConfig:
        if self.machine is not None:
            return self.machine
        return experiment_machine(self.scale)

    @property
    def label(self) -> str:
        return f"{self.workload}/{self.input_id}@{self.scale}"

    def spec(self) -> dict:
        """The task's full identity as a plain dict (JSON-able), built
        once and shared by the hash and the record: never mutate it."""
        return self._spec

    def content_hash(self) -> str:
        """Deterministic sha256 over the spec plus the code-version
        salt — the cache key."""
        return self._content_hash

    @cached_property
    def _spec(self) -> dict:
        return {
            "workload": self.workload,
            "input_id": self.input_id,
            "scale": self.scale,
            "variants": sorted(self.variants),
            "machine": machine_to_dict(self.resolved_machine()),
        }

    @cached_property
    def _content_hash(self) -> str:
        payload = canonical_json({"salt": CODE_SALT, "spec": self._spec})
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # ---------------------------------------------------------- evaluation

    def evaluate(self) -> dict:
        """Run the cell and return its plain-JSON result record."""
        from ..eval.workloads import run_workload

        run = run_workload(
            self.workload, self.input_id, self.resolved_machine(),
            self.scale, variants=tuple(self.variants),
        )
        results = {}
        for variant in KNOWN_VARIANTS:
            result = getattr(run, variant, None)
            if result is not None:
                results[variant] = system_result_to_dict(result)
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "salt": CODE_SALT,
            "hash": self.content_hash(),
            "task": self.spec(),
            "results": results,
        }


def task_from_spec(spec: dict) -> SimTask:
    """Rebuild a :class:`SimTask` from :meth:`SimTask.spec` output.

    The spec always carries the resolved machine, so the rebuilt task
    is machine-pinned — and hash-identical to the task that produced
    the spec (``spec()`` resolves the machine before hashing).  The
    service's job journal stores specs; this is the resume path.  A
    retired ``seed`` key in older specs is ignored."""
    return SimTask(
        workload=spec["workload"],
        input_id=spec["input_id"],
        scale=spec.get("scale", "small"),
        variants=tuple(spec.get("variants", ("baseline", "tmu"))),
        machine=machine_from_dict(spec["machine"])
        if spec.get("machine") else None,
    )


# --------------------------------------------------- record (de)serialization

def system_result_to_dict(result: SystemResult) -> dict:
    b = result.breakdown
    return {
        "name": result.name,
        "cycles": result.cycles,
        "read_to_write": result.read_to_write,
        "tmu_cycles": result.tmu_cycles,
        "core_cycles": result.core_cycles,
        "breakdown": {
            "committing": b.committing,
            "frontend": b.frontend,
            "backend": b.backend,
            "load_to_use": b.load_to_use,
            "mem_bytes": b.mem_bytes,
            "flops": b.flops,
        },
    }


def system_result_from_dict(data: dict) -> SystemResult:
    return SystemResult(
        name=data["name"],
        cycles=data["cycles"],
        breakdown=CycleBreakdown(**data["breakdown"]),
        read_to_write=data["read_to_write"],
        tmu_cycles=data["tmu_cycles"],
        core_cycles=data["core_cycles"],
    )


def run_from_record(record: dict):
    """Rebuild the driver-facing :class:`WorkloadRun` from a record."""
    from ..eval.workloads import WorkloadRun

    results = record["results"]
    task = record["task"]
    run = WorkloadRun(
        workload=task["workload"],
        input_id=task["input_id"],
        baseline=system_result_from_dict(results["baseline"]),
    )
    for variant in ("tmu", "single_lane", "imp"):
        if variant in results:
            setattr(run, variant, system_result_from_dict(results[variant]))
    return run
