"""The CLI's one error policy, on every subcommand.

``repro.cli.main`` runs each subcommand under one wrapper: a
``ReproError`` prints ``error: ...`` on stderr and exits 2, and a stdout
pipe that closes while a command prints (``repro query runs | head``)
exits 0.  The service commands talk to a stubbed ``urlopen``, so no
socket is opened.
"""

from __future__ import annotations

import io
import json
import sqlite3
import sys
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro import obs
from repro.cli import main
from repro.obs import Registry, make_snapshot, write_snapshot

URL = "http://127.0.0.1:8321"
JOB_ID = "a" * 64
JOB = {
    "id": JOB_ID,
    "state": "done",
    "client": "cli",
    "total": 2,
    "completed": 2,
    "cached": 0,
    "simulated": 2,
    "failed": 0,
    "sweep": {"workloads": ["spmv"]},
}
#: (method, path) -> the service's JSON reply
REPLIES = {
    ("POST", "/v1/jobs"): {"job": JOB, "created": True},
    ("GET", "/v1/jobs"): {"jobs": [JOB]},
    ("GET", f"/v1/jobs/{JOB_ID}/result"): {"job": JOB, "records": [], "missing": 0},
}


def _service_up(request, timeout=None):
    path = urllib.parse.urlsplit(request.full_url).path
    reply = REPLIES[(request.get_method(), path)]
    return io.BytesIO(json.dumps(reply).encode("utf-8"))


def _service_down(request, timeout=None):
    raise urllib.error.URLError("connection refused")


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.fixture()
def files(tmp_path):
    """A snapshot and a trace on disk, a store holding the snapshot,
    and a store written by a newer schema."""
    reg = Registry()
    reg.gauge("runtime.executor.cells_per_sec").set(10.0)
    snap = write_snapshot(make_snapshot(reg), tmp_path / "snap.json")
    trace = obs.write_trace(obs.make_trace(), tmp_path / "trace.json")
    db = tmp_path / "db.sqlite"
    stale = tmp_path / "stale.sqlite"
    for store in (db, stale):
        assert main(["ingest", str(snap), "--store", str(store)]) == 0
    con = sqlite3.connect(stale)
    con.execute(
        "UPDATE store_meta SET value = 'repro.store/2' WHERE key = 'schema'"
    )
    con.commit()
    con.close()
    return {
        "snap": str(snap),
        "trace": str(trace),
        "db": str(db),
        "stale": str(stale),
        "missing": str(tmp_path / "nope.json"),
        "html": str(tmp_path / "report.html"),
    }


#: subcommand -> (argv that fails with a ReproError, argv that prints);
#: the service commands fail by reaching no service
CASES = {
    "stats": (["dump", "{missing}"], ["dump", "{snap}"]),
    "trace": (["report", "{missing}"], ["report", "{trace}"]),
    "ingest": (["{missing}", "--store", "{db}"], ["{snap}", "--store", "{db}"]),
    "query": (["runs", "--store", "{stale}"], ["runs", "--store", "{db}"]),
    "report": (
        ["--store", "{stale}", "--out", "{html}"],
        ["--store", "{db}", "--out", "{html}"],
    ),
    "submit": (["--workloads", "spmv", "--url", URL],) * 2,
    "jobs": (["--url", URL],) * 2,
    "fetch": ([JOB_ID, "--url", URL],) * 2,
}


@pytest.mark.parametrize("command", sorted(CASES))
def test_one_error_policy(command, files, monkeypatch, capsys):
    fails, prints = (
        [command] + [arg.format(**files) for arg in argv] for argv in CASES[command]
    )

    monkeypatch.setattr(urllib.request, "urlopen", _service_down)
    capsys.readouterr()
    assert main(fails) == 2
    assert capsys.readouterr().err.startswith("error: ")

    monkeypatch.setattr(urllib.request, "urlopen", _service_up)
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    # the policy closes stderr to mute the interpreter's epilogue
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    assert main(prints) == 0
