"""The HTTP face of the service: a stdlib ``ThreadingHTTPServer``.

:class:`SimService` is the composition root — store + queue +
scheduler + result cache wired together — and :func:`make_server`
binds it to a JSON API (routes documented in
:mod:`repro.serve.protocol`).  Every request is handled on its own
thread; the handlers only touch the thread-safe service objects, so
the HTTP layer stays a thin translation of requests into scheduler
calls and journal reads.

The event endpoint doubles as a poll (``GET .../events?since=N``
returns immediately) and a stream (``?follow=1`` keeps the connection
open and writes NDJSON chunks as the journal grows, ending when the
job reaches a terminal state).
"""

from __future__ import annotations

import json
import logging
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from .. import obs
from ..errors import ServeError
from ..obs.live import PROM_CONTENT_TYPE, to_prometheus
from ..obs.logging import get_logger, log_event
from ..obs.registry import Registry
from ..runtime.cache import open_cache
from .jobs import JobState, JobStore
from .protocol import SERVE_SCHEMA, Submission
from .queue import DEFAULT_QUOTA, JobQueue, QuotaError
from .scheduler import Scheduler

_log = get_logger("serve.server")

#: default service state (job journal) location, next to the cache.
DEFAULT_STATE_DIR = ".repro-serve"

#: default bind address of ``repro serve``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8321


class SimService:
    """Store + queue + scheduler + cache, wired and supervised."""

    def __init__(self, *, state_dir: str | Path = DEFAULT_STATE_DIR,
                 cache_dir: str | Path | None = None,
                 jobs: int = 1, workers: int = 1,
                 quota: int = DEFAULT_QUOTA,
                 timeout: float | None = None, retries: int = 1,
                 batch_size: int | None = None,
                 telemetry: bool = False,
                 db_path: str | Path | None = None) -> None:
        self.state_dir = Path(state_dir)
        self.store = JobStore(self.state_dir / "jobs")
        self.queue = JobQueue(quota=quota)
        self.cache = open_cache(cache_dir)
        kwargs = {} if batch_size is None else {
            "batch_size": batch_size}
        self.scheduler = Scheduler(
            self.store, self.queue, cache=self.cache, jobs=jobs,
            workers=workers, timeout=timeout, retries=retries,
            db_path=None if db_path is None else str(db_path),
            **kwargs)
        self.telemetry = telemetry

    def start(self) -> int:
        """Enable telemetry, recover journaled work, start workers;
        returns the number of recovered jobs."""
        if self.telemetry and not obs.enabled():
            obs.enable()
        recovered = self.scheduler.recover()
        self.scheduler.start()
        return recovered

    def stop(self) -> None:
        self.queue.close()
        self.scheduler.stop()

    # ----------------------------------------------------------- queries

    def job_dict(self, job_id: str) -> dict:
        job = self.store.get(job_id)
        if job is None:
            raise ServeError(f"unknown job {job_id[:12]}")
        return job.as_dict()

    def result(self, job_id: str) -> dict:
        """The job's result records, served from the content-addressed
        cache by cell hash."""
        job = self.store.get(job_id)
        if job is None:
            raise ServeError(f"unknown job {job_id[:12]}")
        records = self.cache.get_many(job.cells)
        missing = sum(1 for r in records.values() if r is None)
        return {
            "schema": SERVE_SCHEMA,
            "job": job.as_dict(),
            "records": records,
            "missing": missing,
        }

    def stats(self) -> dict:
        counts: dict[str, int] = {}
        for job in self.store.list():
            counts[job.state.value] = counts.get(job.state.value, 0) + 1
        data = {
            "schema": SERVE_SCHEMA,
            "queue_depth": self.queue.depth,
            "jobs": counts,
        }
        if obs.enabled():
            data["telemetry"] = obs.snapshot(meta={"source": "serve"})
        return data

    # ------------------------------------------------------- observability

    def readiness(self) -> dict:
        """The ``/readyz`` body: ready iff the scheduler supervisor is
        alive, the queue accepts submissions, and the journal is
        writable."""
        checks = {
            "scheduler": self.scheduler.alive,
            "queue": self.queue.accepting,
            "store": self.store.writable(),
        }
        return {"schema": SERVE_SCHEMA,
                "ready": all(checks.values()), "checks": checks}

    def refresh_gauges(self, registry: Registry) -> None:
        """Write the scrape-time service gauges into ``registry``:
        queue depth, per-state job counts (zero-filled so every state
        series exists from the first scrape), and readiness."""
        view = registry.prefixed("serve")
        view.gauge("queue_depth").set(float(self.queue.depth))
        counts = dict.fromkeys((s.value for s in JobState), 0)
        for job in self.store.list():
            counts[job.state.value] += 1
        for state, n in counts.items():
            view.gauge(f"jobs.{state}").set(float(n))
        view.gauge("ready").set(
            1.0 if self.readiness()["ready"] else 0.0)

    def metrics_registry(self) -> Registry:
        """The registry ``/metrics`` renders: the live telemetry
        registry when enabled (refreshed with scrape-time gauges),
        else a fresh registry carrying the gauges alone."""
        registry = obs.active() if obs.enabled() else Registry()
        self.refresh_gauges(registry)
        return registry


class ServeHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service object for handlers."""

    daemon_threads = True

    def __init__(self, address, service: SimService,
                 quiet: bool = False) -> None:
        self.service = service
        self.quiet = quiet
        super().__init__(address, _Handler)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: ServeHTTPServer

    # ------------------------------------------------------------ helpers

    def log_message(self, fmt, *args):  # noqa: A003
        if not self.server.quiet:
            log_event(_log, logging.INFO, fmt % args,
                      peer=self.client_address[0])

    @property
    def service(self) -> SimService:
        return self.server.service

    def _send_json(self, code: int, body: dict) -> None:
        payload = json.dumps(body, sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_error_json(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b"{}"
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError(f"request body is not JSON: {exc}") \
                from exc

    # ------------------------------------------------------------- routes

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("GET", self._route_get)

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST", self._route_post)

    def _dispatch(self, method: str, route_fn) -> None:
        """Run one request through its router, recording a per-route
        request counter and latency histogram (``serve.http.<route>.*``
        — the route segment becomes a label on ``/metrics``)."""
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        route = _route_label(method, parts)
        start = time.perf_counter()
        try:
            route_fn(url, parts)
        finally:
            elapsed_ms = (time.perf_counter() - start) * 1e3
            if obs.enabled():
                view = obs.active().prefixed(f"serve.http.{route}")
                view.counter("requests").add()
                view.histogram("latency_ms").record(elapsed_ms)
            log_event(_log, logging.DEBUG, f"{method} {url.path}",
                      route=route, latency_ms=round(elapsed_ms, 3),
                      peer=self.client_address[0])

    def _route_get(self, url, parts: list[str]) -> None:
        query = parse_qs(url.query)
        try:
            if parts == ["healthz"]:
                self._send_json(200, {"ok": True,
                                      "schema": SERVE_SCHEMA})
            elif parts == ["readyz"]:
                ready = self.service.readiness()
                self._send_json(200 if ready["ready"] else 503, ready)
            elif parts == ["metrics"]:
                self._get_metrics()
            elif parts == ["v1", "stats"]:
                self._send_json(200, self.service.stats())
            elif parts == ["v1", "jobs"]:
                self._send_json(200, {"jobs": [
                    j.as_dict() for j in self.service.store.list()]})
            elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                self._send_json(200, self.service.job_dict(parts[2]))
            elif len(parts) == 4 and parts[:2] == ["v1", "jobs"] \
                    and parts[3] == "result":
                self._get_result(parts[2])
            elif len(parts) == 4 and parts[:2] == ["v1", "jobs"] \
                    and parts[3] == "events":
                self._get_events(parts[2], query)
            else:
                self._send_error_json(404, f"no route {url.path}")
        except ServeError as exc:
            self._send_error_json(404 if "unknown job" in str(exc)
                                  else 400, str(exc))

    def _route_post(self, url, parts: list[str]) -> None:
        try:
            if parts == ["v1", "jobs"]:
                submission = Submission.from_dict(self._read_body())
                job, created = self.service.scheduler.submit(submission)
                self._send_json(201 if created else 200, {
                    "job": job.as_dict(), "created": created})
            elif len(parts) == 4 and parts[:2] == ["v1", "jobs"] \
                    and parts[3] == "cancel":
                job = self.service.scheduler.cancel(parts[2])
                self._send_json(200, {"job": job.as_dict()})
            else:
                self._send_error_json(404, f"no route {self.path}")
        except QuotaError as exc:
            self._send_error_json(429, str(exc))
        except ServeError as exc:
            self._send_error_json(404 if "unknown job" in str(exc)
                                  else 400, str(exc))

    # ------------------------------------------------------------ metrics

    def _get_metrics(self) -> None:
        registry = self.service.metrics_registry()
        # worker threads mutate the registry mid-scrape; snapshotting
        # iterates it, so retry the rare torn iteration.
        for attempt in range(3):
            try:
                text = to_prometheus(registry,
                                     labels={"job": "repro-serve"})
                break
            except RuntimeError:
                if attempt == 2:
                    raise
        payload = text.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", PROM_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    # ----------------------------------------------------- result/events

    def _get_result(self, job_id: str) -> None:
        result = self.service.result(job_id)
        state = result["job"]["state"]
        if state not in ("done", "failed", "cancelled"):
            self._send_error_json(
                409, f"job {job_id[:12]} is {state}; results are "
                     "served once it reaches a terminal state")
            return
        self._send_json(200, result)

    def _get_events(self, job_id: str, query: dict) -> None:
        service = self.service
        if service.store.get(job_id) is None:
            self._send_error_json(404, f"unknown job {job_id[:12]}")
            return
        since = int(query.get("since", ["0"])[0])
        follow = query.get("follow", ["0"])[0] not in ("0", "", "false")
        if not follow:
            events = service.store.events(job_id, since)
            self._send_json(200, {"events": events,
                                  "next": since + len(events)})
            return
        # chunked NDJSON stream: one event per line, closed when the
        # job reaches a terminal state and the journal is drained.
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        cursor = since
        try:
            while True:
                fresh = service.store.wait_events(job_id, cursor,
                                                  timeout=0.5)
                for event in fresh:
                    self._write_chunk(
                        json.dumps(event, sort_keys=True) + "\n")
                cursor += len(fresh)
                job = service.store.get(job_id)
                if not fresh and (job is None or job.state.terminal):
                    break
            self._write_chunk("")  # terminating zero-length chunk
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream

    def _write_chunk(self, text: str) -> None:
        data = text.encode("utf-8")
        self.wfile.write(f"{len(data):x}\r\n".encode("ascii"))
        self.wfile.write(data + b"\r\n")
        self.wfile.flush()


def _route_label(method: str, parts: list[str]) -> str:
    """Normalize a request path to a bounded route-family label (job
    ids must never become label values — cardinality)."""
    if parts in (["healthz"], ["readyz"], ["metrics"]):
        return parts[0]
    if parts == ["v1", "stats"]:
        return "stats"
    if parts[:2] == ["v1", "jobs"]:
        if len(parts) == 2:
            return "jobs_submit" if method == "POST" else "jobs_list"
        if len(parts) == 3:
            return "job_get"
        if len(parts) == 4 and parts[3] in ("result", "events",
                                            "cancel"):
            return f"job_{parts[3]}"
    return "other"


def make_server(service: SimService, host: str = DEFAULT_HOST,
                port: int = DEFAULT_PORT,
                quiet: bool = False) -> ServeHTTPServer:
    """Bind the service to an HTTP server (``port=0`` for ephemeral;
    the bound port is ``server.server_address[1]``)."""
    return ServeHTTPServer((host, port), service, quiet=quiet)
