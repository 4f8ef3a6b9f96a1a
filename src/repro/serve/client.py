"""A stdlib client for the simulation job service.

Everything the CLI, the examples and CI smoke tests need: submit a
declarative sweep, poll or stream a job, fetch its content-addressed
results.  Pure ``urllib`` — no dependencies beyond the standard
library, same as the server.

Usage::

    from repro.serve.client import ServeClient, make_sweep

    client = ServeClient("http://127.0.0.1:8321")
    job = client.submit(make_sweep(workloads=["spmv", "spkadd"]))
    job = client.wait(job["id"])
    records = client.result(job["id"])["records"]
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

from ..errors import ServeError
from .server import DEFAULT_HOST, DEFAULT_PORT

#: default service URL, matching ``repro serve`` defaults.
DEFAULT_URL = f"http://{DEFAULT_HOST}:{DEFAULT_PORT}"


def make_sweep(*, workloads, inputs=None, scale="small",
               variants=("baseline", "tmu"), machines=None) -> dict:
    """A sweep dict in the wire layout (validated server-side)."""
    sweep = {"workloads": list(workloads), "scale": scale,
             "variants": list(variants)}
    if inputs:
        sweep["inputs"] = list(inputs)
    if machines:
        sweep["machines"] = list(machines)
    return sweep


class ServeClient:
    """Thin JSON-over-HTTP client for one service endpoint."""

    def __init__(self, base_url: str = DEFAULT_URL,
                 timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------- wire

    def _request(self, method: str, path: str,
                 body: dict | None = None) -> dict:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(self.base_url + path, data=data,
                                     headers=headers, method=method)
        try:
            with urllib.request.urlopen(
                    req, timeout=self.timeout) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(
                    exc.read().decode("utf-8"))["error"]
            except Exception:  # noqa: BLE001 - non-JSON error body
                message = str(exc)
            raise ServeError(
                f"{method} {path} -> {exc.code}: {message}") from exc
        except (urllib.error.URLError, OSError) as exc:
            raise ServeError(
                f"cannot reach service at {self.base_url}: "
                f"{exc}") from exc

    # ------------------------------------------------------------ verbs

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def submit(self, sweep: dict, *, client: str = "anon",
               priority: int = 0) -> dict:
        """Submit a sweep; returns the job dict (``_created`` carries
        whether this submission created the job or deduplicated onto
        an existing one)."""
        body = {"sweep": sweep, "client": client, "priority": priority}
        data = self._request("POST", "/v1/jobs", body)
        job = data["job"]
        job["_created"] = data["created"]
        return job

    def jobs(self) -> list[dict]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> dict:
        return self._request("POST",
                             f"/v1/jobs/{job_id}/cancel")["job"]

    def events(self, job_id: str, since: int = 0) -> dict:
        return self._request(
            "GET", f"/v1/jobs/{job_id}/events?since={since}")

    # ----------------------------------------------------- conveniences

    def wait(self, job_id: str, *, timeout: float | None = None,
             poll: float = 0.3, on_event=None) -> dict:
        """Poll until the job reaches a terminal state; returns the
        final job dict.  ``on_event`` (if given) receives each new
        journal event along the way."""
        deadline = None if timeout is None else \
            time.monotonic() + timeout
        cursor = 0
        while True:
            if on_event is not None:
                data = self.events(job_id, since=cursor)
                for event in data["events"]:
                    on_event(event)
                cursor = data["next"]
            job = self.job(job_id)
            if job["state"] in ("done", "failed", "cancelled"):
                if on_event is not None:
                    data = self.events(job_id, since=cursor)
                    for event in data["events"]:
                        on_event(event)
                return job
            if deadline is not None and time.monotonic() > deadline:
                raise ServeError(
                    f"job {job_id[:12]} still {job['state']} after "
                    f"{timeout}s")
            time.sleep(poll)

    def stream_events(self, job_id: str, since: int = 0):
        """Yield journal events from the chunked follow stream until
        the job completes."""
        url = (f"{self.base_url}/v1/jobs/{job_id}/events"
               f"?since={since}&follow=1")
        req = urllib.request.Request(
            url, headers={"Accept": "application/x-ndjson"})
        try:
            with urllib.request.urlopen(req) as resp:
                for line in resp:
                    line = line.strip()
                    if line:
                        yield json.loads(line.decode("utf-8"))
        except urllib.error.HTTPError as exc:
            raise ServeError(
                f"event stream for {job_id[:12]} failed: "
                f"{exc.code}") from exc
