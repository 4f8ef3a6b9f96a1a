"""The service wire protocol: declarative sweeps and the job schema.

A submitted job is *data, not code*: a :class:`SweepSpec` names the
axes of a sweep (workloads × inputs × machine configs, plus scale and
variants) and the server expands it into
:class:`~repro.runtime.task.SimTask` cells.  Because cells are
content-hashed, the job id is itself content-addressed — the sha256
over the sorted cell hashes — which is what makes submission
idempotent: a million identical submissions name the same job and cost
one simulation.

HTTP surface (all bodies JSON, schema :data:`SERVE_SCHEMA`)::

    GET  /healthz                   liveness + schema version
    GET  /v1/stats                  service gauges + obs snapshot
    POST /v1/jobs                   {"sweep": {...}, "client": "ci",
                                     "priority": 0}  -> {job, created}
    GET  /v1/jobs                   {"jobs": [...]}
    GET  /v1/jobs/<id>              one job record (poll endpoint)
    GET  /v1/jobs/<id>/result       {"records": {hash: record}}
    GET  /v1/jobs/<id>/events       journaled progress events; with
                                    ``?follow=1`` a chunked NDJSON
                                    stream that ends when the job does
    POST /v1/jobs/<id>/cancel       request cancellation

Error responses are ``{"error": "..."}`` with 400 (malformed sweep),
404 (unknown job), 409 (result not ready) or 429 (quota exhausted).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..errors import ServeError
from ..runtime.task import (
    KNOWN_VARIANTS,
    SimTask,
    canonical_json,
    machine_from_dict,
)

#: bump on any incompatible change to the job record or HTTP surface.
SERVE_SCHEMA = "repro.serve/1"

#: sweep scales the server accepts (mirrors the CLI presets).
KNOWN_SCALES = ("small", "medium", "paper")


@dataclass(frozen=True)
class SweepSpec:
    """One declarative sweep submission.

    ``inputs=None`` means the full suite inputs of each workload
    (:func:`repro.eval.workloads.inputs_for`); an explicit tuple must
    be valid for *every* workload in the sweep.  ``machines`` is an
    optional axis of full machine dicts
    (:func:`repro.runtime.task.machine_to_dict` layout); ``None``
    resolves to the cache-scaled experiment machine for ``scale``.
    A retired ``seed`` field, which older clients and journals carry,
    is accepted and ignored.
    """

    workloads: tuple[str, ...]
    inputs: tuple[str, ...] | None = None
    scale: str = "small"
    variants: tuple[str, ...] = ("baseline", "tmu")
    machines: tuple[dict, ...] | None = None

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ServeError("sweep names no workloads")
        if self.scale not in KNOWN_SCALES:
            raise ServeError(
                f"unknown scale {self.scale!r}; "
                f"known: {list(KNOWN_SCALES)}")
        unknown = set(self.variants) - set(KNOWN_VARIANTS)
        if unknown:
            raise ServeError(
                f"unknown variants {sorted(unknown)}; "
                f"known: {list(KNOWN_VARIANTS)}")

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        if not isinstance(data, dict):
            raise ServeError(f"sweep must be an object, got "
                             f"{type(data).__name__}")
        allowed = {"workloads", "inputs", "scale", "variants",
                   "machines", "seed"}  # seed: retired, ignored
        unknown = set(data) - allowed
        if unknown:
            raise ServeError(f"unknown sweep fields {sorted(unknown)}; "
                             f"allowed: {sorted(allowed)}")
        try:
            return cls(
                workloads=tuple(data["workloads"]),
                inputs=tuple(data["inputs"])
                if data.get("inputs") else None,
                scale=data.get("scale", "small"),
                variants=tuple(data.get("variants")
                               or ("baseline", "tmu")),
                machines=tuple(data["machines"])
                if data.get("machines") else None,
            )
        except ServeError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ServeError(f"malformed sweep: {exc}") from exc

    def as_dict(self) -> dict:
        data = {
            "workloads": list(self.workloads),
            "scale": self.scale,
            "variants": sorted(self.variants),
        }
        if self.inputs is not None:
            data["inputs"] = list(self.inputs)
        if self.machines is not None:
            data["machines"] = list(self.machines)
        return data

    # -------------------------------------------------------- expansion

    def expand(self) -> list[SimTask]:
        """The sweep's cells, expanded and validated server-side."""
        from ..eval.workloads import WORKLOADS, inputs_for

        unknown = set(self.workloads) - set(WORKLOADS)
        if unknown:
            raise ServeError(
                f"unknown workloads {sorted(unknown)}; "
                f"known: {sorted(WORKLOADS)}")
        machines = [None]
        if self.machines is not None:
            try:
                machines = [machine_from_dict(m) for m in self.machines]
            except (KeyError, TypeError) as exc:
                raise ServeError(f"malformed machine dict: {exc}") \
                    from exc
        tasks: list[SimTask] = []
        for workload in self.workloads:
            suite = inputs_for(workload)
            input_ids = suite if self.inputs is None else self.inputs
            bad = set(input_ids) - set(suite)
            if bad:
                raise ServeError(
                    f"inputs {sorted(bad)} are not valid for workload "
                    f"{workload!r} (suite: {suite})")
            for input_id in input_ids:
                for machine in machines:
                    tasks.append(SimTask(
                        workload, input_id, scale=self.scale,
                        variants=self.variants, machine=machine))
        return tasks


def job_id_for(tasks: list[SimTask]) -> str:
    """The content-addressed job id: sha256 over the sorted cell
    hashes.  Two sweeps expanding to the same cells are the same job,
    however their specs were phrased."""
    cells = sorted(t.content_hash() for t in tasks)
    payload = canonical_json({"schema": SERVE_SCHEMA, "cells": cells})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Submission:
    """A validated submit request (the POST /v1/jobs body)."""

    sweep: SweepSpec
    client: str = "anon"
    priority: int = 0
    tasks: tuple[SimTask, ...] = field(default=(), compare=False)

    @classmethod
    def from_dict(cls, data: dict) -> "Submission":
        if not isinstance(data, dict) or "sweep" not in data:
            raise ServeError('submission must be {"sweep": {...}, ...}')
        client = str(data.get("client", "anon")) or "anon"
        if any(c in client for c in "./\\ \t\n"):
            raise ServeError(f"invalid client id {client!r}")
        try:
            priority = int(data.get("priority", 0))
        except (TypeError, ValueError) as exc:
            raise ServeError(f"invalid priority: {exc}") from exc
        sweep = SweepSpec.from_dict(data["sweep"])
        return cls(sweep=sweep, client=client, priority=priority,
                   tasks=tuple(sweep.expand()))
