"""Ingest: every result shape the project produces, into one database.

Four source shapes feed the store, each mapped onto the same
normalized tables so queries never care where a number came from:

* **run manifests** (``repro.runtime``): per-cell outcomes into
  ``cells``, aggregates into ``run_stats``; a CLI run files its
  manifest together with its telemetry snapshot's ``metrics`` and its
  trace's ``trace_summaries``, as one run;
* **telemetry snapshots** (``repro.obs/1``, including the committed
  ``BENCH_<rev>.json`` trajectory points): flattened metrics into
  ``metrics``, the ``runtime.executor.*`` headline into ``run_stats``;
* **serve-job journals** (``repro.serve/1`` records plus their
  ``.events.jsonl``): job aggregates into ``run_stats``, per-cell
  progress events into ``cells``;
* **event traces** (``repro.trace/1``): the end-of-run summary spans
  into ``trace_summaries``.

Every ingest is idempotent: the run row is keyed by a sha256 over the
source's canonical content, so feeding the same file twice (or two
copies of it) creates nothing new.  :func:`ingest_file` sniffs the
shape from the content; :func:`ingest_paths` walks files and
directories (a cache's ``manifests/`` dir, a service's ``jobs/`` dir,
a repo root full of ``BENCH_*.json``).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ..errors import ReproError, StoreError
from ..obs.export import fold_trace
from ..obs.snapshot import iter_metrics, validate_snapshot
from ..obs.tracing import load_trace, validate_trace
from ..runtime.manifest import RunManifest
from ..runtime.task import canonical_json
from .store import ExperimentStore

#: the headline metric the store derives for every run kind
HEADLINE_METRIC = "runtime.executor.cells_per_sec"

#: trace_summaries name prefix for per-span duration histograms
DURATION_PREFIX = "durations:"


def _run_key(kind: str, payload) -> str:
    """Content address of an ingested source (kind-prefixed sha256)."""
    body = canonical_json(payload)
    return hashlib.sha256(f"{kind}:{body}".encode("utf-8")).hexdigest()


def _summary(kind: str, run_id: int, created: bool,
             rev: str | None, source: str | None) -> dict:
    return {"kind": kind, "run_id": run_id, "created": created,
            "rev": rev, "source": source}


# ---------------------------------------------------------------- manifests

def ingest_manifest(store: ExperimentStore,
                    manifest: RunManifest | dict | str | Path, *,
                    source: str | None = None,
                    rev: str | None = None,
                    snapshot: dict | None = None,
                    trace: dict | None = None) -> dict:
    """Ingest one run manifest (object, dict, or file path).

    ``snapshot`` and ``trace`` are the same run's ``repro.obs/1``
    telemetry snapshot and ``repro.trace/1`` timeline: their metrics
    and summary spans attach to the manifest's run, and their meta
    joins its own.  The run key covers the manifest alone, so
    ingesting the written manifest file later finds this run.
    """
    if isinstance(manifest, (str, Path)):
        source = source or str(manifest)
        try:
            data = json.loads(Path(manifest).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(
                f"cannot read manifest {manifest}: {exc}") from exc
        manifest = RunManifest.load_dict(data)
    elif isinstance(manifest, dict):
        manifest = RunManifest.load_dict(manifest)
    rev = rev or manifest.rev
    if snapshot is not None:
        snapshot = validate_snapshot(snapshot)
    if trace is not None:
        trace = validate_trace(trace)
    meta = {**(snapshot or {}).get("meta", {}),
            **(trace or {}).get("meta", {}),
            "jobs": manifest.jobs, "mode": manifest.mode}
    run_id, created = store.add_run(
        run_key=_run_key("manifest", manifest.to_dict()), kind="manifest",
        rev=rev, created_unix=manifest.created_at or None, source=source,
        meta=meta)
    if not created:
        return _summary("manifest", run_id, False, rev, source)
    store.add_cells(run_id, [
        {
            "task_hash": e.hash,
            "workload": e.workload,
            "input_id": e.input_id,
            "scale": e.scale,
            "variants": ",".join(e.variants),
            "cached": e.cached,
            "wall_time": e.wall_time,
            "attempts": e.attempts,
            "error": e.error,
        }
        for e in manifest.entries
    ])
    simulated = manifest.simulated
    rate = (simulated / manifest.wall_time
            if simulated and manifest.wall_time > 0 else None)
    store.set_run_stats(
        run_id, cells=manifest.total, cached=manifest.cache_hits,
        simulated=simulated, failed=len(manifest.failures),
        wall_time=manifest.wall_time, cells_per_sec=rate)
    if snapshot is not None:
        store.add_metrics(run_id, list(iter_metrics(snapshot)))
    if trace is not None:
        _add_trace_summaries(store, run_id, fold_trace(trace))
    return _summary("manifest", run_id, True, rev, source)


# ---------------------------------------------------------------- snapshots

def ingest_snapshot(store: ExperimentStore, snap: dict | str | Path, *,
                    source: str | None = None, kind: str = "snapshot",
                    rev: str | None = None) -> dict:
    """Ingest one ``repro.obs/1`` telemetry snapshot (or BENCH file)."""
    if isinstance(snap, (str, Path)):
        source = source or str(snap)
        if kind == "snapshot" and Path(snap).name.startswith("BENCH_"):
            kind = "bench"
        try:
            snap = json.loads(Path(snap).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(
                f"cannot read snapshot {snap}: {exc}") from exc
    snap = validate_snapshot(snap)
    meta = snap.get("meta", {})
    rev = rev or meta.get("rev")
    run_id, created = store.add_run(
        run_key=_run_key(kind, snap), kind=kind, rev=rev,
        created_unix=snap.get("created_unix"), source=source, meta=meta)
    if not created:
        return _summary(kind, run_id, False, rev, source)
    store.add_metrics(run_id, list(iter_metrics(snap)))
    counters = snap.get("counters", {})
    timers = snap.get("timers", {})
    gauges = snap.get("gauges", {})
    cells = int(counters.get("runtime.executor.cells", 0))
    if cells:
        rate = gauges.get(HEADLINE_METRIC, {}).get("value")
        store.set_run_stats(
            run_id, cells=cells,
            cached=int(counters.get("runtime.executor.cells_cached", 0)),
            simulated=int(
                counters.get("runtime.executor.cells_simulated", 0)),
            failed=int(counters.get("runtime.executor.cells_failed", 0)),
            wall_time=float(
                timers.get("runtime.executor.batch", {})
                .get("total_s", 0.0)),
            cells_per_sec=rate)
    return _summary(kind, run_id, True, rev, source)


# -------------------------------------------------------------- serve jobs

def _parse_label(label: str) -> tuple[str | None, str | None, str | None]:
    """Split an executor cell label ``workload/input@scale``."""
    if "/" not in label:
        return None, None, None
    workload, rest = label.split("/", 1)
    input_id, _, scale = rest.partition("@")
    return workload, input_id, scale or None


def ingest_job(store: ExperimentStore, job: dict | str | Path, *,
               events: list[dict] | None = None,
               source: str | None = None,
               rev: str | None = None) -> dict:
    """Ingest one serve-job journal record (plus its event log).

    When ``job`` is a path, the sibling ``<id>.events.jsonl`` is read
    automatically; per-cell progress events become ``cells`` rows
    (cache hits never emit cell events, so those cells are accounted
    only in the job aggregates).
    """
    if isinstance(job, (str, Path)):
        path = Path(job)
        source = source or str(path)
        try:
            job = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(f"cannot read job record {path}: {exc}") \
                from exc
        if events is None:
            events = _load_events(path.with_name(
                path.name.replace(".json", ".events.jsonl")))
    if not isinstance(job, dict) or "state" not in job or \
            "cells" not in job:
        raise StoreError("not a serve-job record (missing state/cells)")
    run_id, created = store.add_run(
        run_key=_run_key("serve-job", job), kind="serve-job", rev=rev,
        created_unix=job.get("created_at"), source=source,
        meta={"job": job.get("id"), "client": job.get("client"),
              "state": job.get("state"),
              "sweep": job.get("sweep", {})})
    if not created:
        return _summary("serve-job", run_id, False, rev, source)
    started = job.get("started_at")
    finished = job.get("finished_at")
    duration = (finished - started) if started and finished else 0.0
    simulated = int(job.get("simulated", 0))
    rate = simulated / duration if simulated and duration > 0 else None
    store.set_run_stats(
        run_id, cells=int(job.get("total", len(job.get("cells", ())))),
        cached=int(job.get("cached", 0)), simulated=simulated,
        failed=int(job.get("failed", 0)), wall_time=duration,
        cells_per_sec=rate)
    cell_rows: dict[str, dict] = {}
    for event in events or ():
        if event.get("kind") != "cell" or not event.get("task_hash"):
            continue
        workload, input_id, scale = _parse_label(event.get("label") or "")
        cell_rows[event["task_hash"]] = {     # last event per cell wins
            "task_hash": event["task_hash"],
            "workload": workload,
            "input_id": input_id,
            "scale": scale,
            "cached": False,
            "wall_time": float(event.get("elapsed", 0.0)),
            "attempts": int(event.get("attempt", 0)),
            "error": None if event.get("state") == "simulated"
            else event.get("message"),
        }
    if cell_rows:
        store.add_cells(run_id, list(cell_rows.values()))
    return _summary("serve-job", run_id, True, rev, source)


def _load_events(path: Path) -> list[dict]:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError:
        return []
    events = []
    for line in lines:
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            continue              # torn tail write
    return events


# ------------------------------------------------------------------ traces

def ingest_trace(store: ExperimentStore, trace: dict | str | Path, *,
                 source: str | None = None,
                 rev: str | None = None) -> dict:
    """Ingest one ``repro.trace/1`` timeline's summary spans."""
    if isinstance(trace, (str, Path)):
        source = source or str(trace)
        trace = load_trace(trace)
    else:
        trace = validate_trace(trace)
    meta = dict(trace.get("meta", {}))
    rev = rev or meta.get("rev")
    folded = fold_trace(trace)
    summaries = {f"{track}\x00{name}": args for (track, name), args
                 in folded["summaries"].items()}
    payload = {"meta": meta, "summaries": summaries,
               "ticks": trace.get("ticks")}
    run_id, created = store.add_run(
        run_key=_run_key("trace", payload), kind="trace", rev=rev,
        created_unix=meta.get("created_unix"), source=source, meta=meta)
    if not created:
        return _summary("trace", run_id, False, rev, source)
    _add_trace_summaries(store, run_id, folded)
    return _summary("trace", run_id, True, rev, source)


def _add_trace_summaries(store: ExperimentStore, run_id: int,
                         folded: dict) -> None:
    """Attach a folded trace's summary spans to a run."""
    store.add_trace_summaries(run_id, [
        (track, name, args)
        for (track, name), args in sorted(folded["summaries"].items())
    ] + [
        # span-length histograms ride along under a prefixed name so
        # the query layer can answer percentile questions later; they
        # are derived data, deliberately outside the run_key payload.
        (track, f"{DURATION_PREFIX}{name}", hist.as_dict())
        for (track, name), hist in sorted(folded["durations"].items())
        if hist.count
    ])


# ------------------------------------------------------------- file sniffer

def ingest_file(store: ExperimentStore, path: str | Path, *,
                rev: str | None = None) -> dict:
    """Ingest one JSON file, sniffing its shape from the content."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise StoreError(f"cannot read {path}: {exc}") from exc
    schema = data.get("schema") if isinstance(data, dict) else None
    if isinstance(schema, str) and schema.startswith("repro.obs/"):
        return ingest_snapshot(store, data, source=str(path), rev=rev,
                               kind="bench"
                               if path.name.startswith("BENCH_")
                               else "snapshot")
    if isinstance(schema, str) and schema.startswith("repro.trace/"):
        return ingest_trace(store, data, source=str(path), rev=rev)
    if isinstance(schema, str) and schema.startswith("repro.serve/"):
        return ingest_job(
            store, data, source=str(path), rev=rev,
            events=_load_events(path.with_name(
                path.name.replace(".json", ".events.jsonl"))))
    if isinstance(data, dict) and "entries" in data and "mode" in data:
        return ingest_manifest(store, data, source=str(path), rev=rev)
    raise StoreError(
        f"{path}: unrecognized result shape (expected a repro.obs "
        f"snapshot, repro.trace timeline, repro.serve job record, or "
        f"a run manifest)")


def ingest_paths(store: ExperimentStore, paths: list[str | Path], *,
                 rev: str | None = None) -> list[dict]:
    """Ingest files and directories; directories are walked for
    ``*.json`` and unrecognized files inside them are skipped (a cache
    or journal dir may hold other artifacts), while an explicitly
    named file that cannot be ingested raises."""
    results: list[dict] = []
    for given in paths:
        given = Path(given)
        if given.is_dir():
            for path in sorted(given.rglob("*.json")):
                try:
                    results.append(ingest_file(store, path, rev=rev))
                except ReproError:
                    continue
        else:
            results.append(ingest_file(store, given, rev=rev))
    return results
