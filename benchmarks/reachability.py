"""Reachability trace: which functions under ``src/repro`` does a paper
run call?

    PYTHONPATH=src python -m benchmarks.reachability

Each mode runs its sessions under ``sys.setprofile`` and
``threading.setprofile`` (so the service's scheduler and HTTP threads
are traced too), each session in its own child process, so that no
in-process memo (the input loaders, the walk memos) answers for a
later session.  The first four run ``repro all --scale
small --jobs 1`` (every cell in process):

* ``default``: ``--no-cache --walk-cache off``
* ``reference``: ``--reference``, the golden cache walk
* ``walk-warm``: ``--no-cache --walk-cache DIR`` twice; the first
  session fills the walk tier, the second reads every walk from it
* ``telemetry``: ``--no-cache --walk-cache off --telemetry PATH``

``gates`` runs every figure and table gate, ``pytest
benchmarks/test_*.py``, in process (``REPRO_BENCH_SNAPSHOT=0``): the
figure checks, and every Table 4 program on the functional engine, the
reference the timing models are checked against.

``platform`` runs what else the repo ships and CI runs: the command
steps of CI's ``bench-smoke`` and ``store-smoke`` jobs in their order
(a traced, snapshotted ``fig13`` smoke run, ``stats``, ``trace``,
``ingest`` and ``query``), ``report`` over the resulting store,
``cache-gc`` and ``cache-clear`` on a cache one ``fig10`` run filled,
one service session, ``ingest`` of the smoke run's trace, of the
service's job journal and of the ``fig10`` run's manifest, and every
``examples/*.py`` in process as ``__main__``.  The service session
runs ``repro serve --port 0`` with ``--store`` in the child's main
thread while a client thread runs ``submit --wait``, ``jobs`` and
``fetch --out`` against it, asks for ``/healthz``, cancels one queued
and one running job, requests an unknown route (a JSON 404), and then
interrupts the server with ``SIGINT``, the way Ctrl-C stops it.

The code objects the sessions call are matched by file and first line
to every ``def`` under ``src/repro``.  The script prints the unreached
functions per module and exits 1 when a session fails, when a function
is unreached that is neither a dunder nor kept by :data:`KEEP`, or
when a ``KEEP`` entry has gone stale: it names a function that a mode
reaches or that no longer exists.  The ``reference`` session takes
the largest share of the ≈3.5 minutes all modes take on a 2-core VM.  A session's cells that run in ``--jobs 2`` pool workers
are not collected: only the parent process writes what it called.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
PACKAGE = SRC / "repro"

#: code kept although no mode reaches it -> the consumer that keeps it.
#: A key is ``module:qualname`` (that function and the functions nested
#: in it) or a module or package name (every function under it).
KEEP = {
    "repro.tmu.context": "§5.6 context save/restore "
                         "(tests/test_tmu_context_area.py)",
    "repro.tmu.streams:Stream.touched_address":
        "TraversalUnit._build_plan compares each override with it by "
        "identity",
    "repro.obs:capture": "runtime pool workers (executor.py), whose "
                         "calls the trace does not collect",
    "repro.kernels.cpals:characterize_cpals":
        "benchmarks/e2e/traced.py wraps it by name, and its selftest "
        "fails on a missing target",
    "repro.programs.cpals:cpals_timing_model":
        "benchmarks/e2e/traced.py wraps it by name, and its selftest "
        "fails on a missing target",
    "repro.obs.snapshot:write_bench_snapshot":
        "benchmarks/conftest.py files a BENCH_*.json with it unless "
        "REPRO_BENCH_SNAPSHOT=0",
    "repro.sim.memsys:WalkCache.clear": "test isolation "
                                        "(tests/test_walk_cache.py)",
    "repro.sim.memsys:walk_cache": "test isolation "
                                   "(tests/test_walk_cache.py)",
    "repro.memo:IdentityLRU.clear": "test isolation (tests/test_memo.py)",
    "repro.formats.convert:csr_to_coo": "test fixtures "
                                        "(tests/test_formats_*.py)",
    "repro.formats.coo:CooMatrix.from_dense": "test fixtures",
    "repro.formats.csr:CsrMatrix.from_dense": "test fixtures",
    "repro.formats.dcsr:DcsrMatrix.from_dense": "test fixtures",
    "repro.formats.coo:CooTensor.nbytes": "the storage claims "
                                          "(tests/test_formats_coo.py)",
    "repro.formats.csr:CsrMatrix.nbytes": "the storage claims "
                                          "(tests/test_formats_csr.py)",
    "repro.formats.dcsr:DcsrMatrix.nbytes": "the storage claims "
                                            "(tests/test_formats_dcsr.py)",
    "repro.formats.csf:CsfTensor.nbytes": "the storage claims "
                                          "(tests/test_formats_csf.py)",
    "repro.formats.csf:CsfTensor._validate": "input validation of a "
                                             "caller-built CSF tensor",
    "repro.formats.dcsr:DcsrMatrix._validate": "input validation of a "
                                               "caller-built DCSR matrix",
    "repro.serve.scheduler:Scheduler._handle_worker_death":
        "the scheduler's worker loop when a job raises past the runtime",
    "repro.serve.jobs:Job.reopen": "_handle_worker_death's requeue of a "
                                   "running job",
    "repro.serve.jobs:JobStore.delete":
        "Scheduler.submit's rollback of a quota-rejected submission",
}

_ALL = ("repro", "all", "--scale", "small", "--jobs", "1")
_COLD = (*_ALL, "--no-cache", "--walk-cache", "off")
_GATES = sorted(map(str, Path(__file__).resolve().parent.glob("test_*.py")))

# CI's bench-smoke and store-smoke jobs, command by command
_SMOKE = ("repro", "fig13", "--scale", "small", "--jobs", "2",
          "--workloads", "spmv,spkadd", "--no-cache")
_BASELINE = str(REPO / "benchmarks" / "baselines" / "bench-smoke.json")
_BENCH_DB = ("--store", "{tmp}/bench-smoke.sqlite")
_STORE_DB = ("--store", "{tmp}/store-smoke.sqlite")
_BENCH_SMOKE = [
    (*_SMOKE, "--telemetry", "{tmp}/run-snapshot.json",
     "--trace", "{tmp}/run-trace.json", "--trace-sample", "4"),
    ("repro", "stats", "dump", "{tmp}/run-snapshot.json"),
    ("repro", "trace", "export", "{tmp}/run-trace.json",
     "--out", "{tmp}/run-trace.perfetto.json"),
    ("repro", "trace", "report", "{tmp}/run-trace.json"),
    ("repro", "stats", "diff", _BASELINE, "{tmp}/run-snapshot.json",
     "--changed-only"),
    ("repro", "ingest", _BASELINE, "{tmp}/run-snapshot.json", *_BENCH_DB),
    ("repro", "query", "runs", *_BENCH_DB),
    ("repro", "query", "regressions", "--bound", "0.2", *_BENCH_DB),
]
_STORE_SMOKE = [
    (*_SMOKE, "--telemetry", "{tmp}/store-run.json", *_STORE_DB),
    ("repro", "query", "runs", "--format", "json", *_STORE_DB),
    ("repro", "ingest", *map(str, sorted(REPO.glob("BENCH_*.json"))),
     *_STORE_DB),
    ("repro", "query", "runs", *_STORE_DB),
    ("repro", "query", "cells-per-sec", "--by", "rev", *_STORE_DB),
    ("repro", "query", "cells", *_STORE_DB),
    ("repro", "query", "regressions", "--bound", "0.20", *_STORE_DB),
]
_CACHE = ("--cache-dir", "{tmp}/cache")
_SERVE_DB = ("--store", "{tmp}/serve.sqlite")
_SERVICE = ("service", "--port", "0", "--port-file", "{tmp}/port",
            "--state-dir", "{tmp}/serve-state",
            "--cache-dir", "{tmp}/serve-cache", *_SERVE_DB)

#: mode -> the sessions it runs, one child process each: the entry
#: point (``repro`` or ``pytest``) and its arguments; ``{tmp}`` is the
#: mode's scratch directory
MODES = {
    "default": [_COLD],
    "reference": [(*_ALL, "--reference")],
    "walk-warm": [(*_ALL, "--no-cache", "--walk-cache", "{tmp}/walks")] * 2,
    "telemetry": [(*_COLD, "--telemetry", "{tmp}/snapshot.json")],
    # pytest-benchmark lifts the profile hook while it times a body;
    # --benchmark-disable runs the body once, untimed, under the hook
    "gates": [("pytest", *_GATES, "-q", "-p", "no:cacheprovider",
               "--benchmark-disable")],
    "platform": [
        *_BENCH_SMOKE,
        *_STORE_SMOKE,
        ("repro", "report", *_STORE_DB, "--out", "{tmp}/report.html"),
        ("repro", "fig10", "--workloads", "spmv", *_CACHE),
        ("repro", "cache-gc", *_CACHE),
        ("repro", "cache-clear", *_CACHE),
        _SERVICE,
        ("repro", "ingest", "{tmp}/run-trace.json",
         "{tmp}/serve-state/jobs", "{tmp}/cache/manifests", *_SERVE_DB),
        *(("example", str(path))
          for path in sorted((REPO / "examples").glob("*.py"))),
    ],
}

#: the child: install the profile hook (on this thread and on every
#: thread it starts) before ``repro`` is imported, run one session, then
#: write the ``(file, first line)`` of every code object it called.
#: An example runs as ``__main__`` with no arguments of its own, so the
#: child takes its output path from ``sys.argv`` first.  A ``service``
#: session serves in the main thread until its client thread, done with
#: the service CLI and the client verbs it does not use, sends
#: ``SIGINT``.
_CHILD = """
import contextlib, io, json, os, runpy, signal, sys, threading, time
from pathlib import Path
called = set()
def hook(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)
(entry, *argv), out = json.loads(sys.argv[1]), sys.argv[2]
threading.setprofile(hook)
sys.setprofile(hook)
if entry == "example":
    sys.argv = argv
    runpy.run_path(argv[0], run_name="__main__")
    status = 0
elif entry == "service":
    import urllib.error, urllib.request
    from repro.cli import main
    from repro.serve import ServeClient, make_sweep
    port_file = Path(argv[argv.index("--port-file") + 1])
    failed = []
    def client():
        try:
            deadline = time.monotonic() + 60
            while not (port_file.exists() and port_file.read_text()):
                if time.monotonic() > deadline:
                    raise TimeoutError("the service never listened")
                time.sleep(0.05)
            url = ["--url", f"http://127.0.0.1:{port_file.read_text()}"]
            submitted = io.StringIO()
            with contextlib.redirect_stdout(submitted):
                status = main(["submit", *url, "--workloads", "spmv",
                               "--inputs", "M1", "--wait"])
            job = submitted.getvalue().split()[1]
            status = (status or main(["jobs", *url])
                      or main(["fetch", job, *url, "--out",
                               str(port_file.with_name("fetch.json"))]))
            if status:
                failed.append(f"client exited with status {status}")
            exercise(ServeClient(url[1]))
        except Exception as exc:
            failed.append(repr(exc))
        finally:
            os.kill(os.getpid(), signal.SIGINT)
    def exercise(service):
        # one worker: a job submitted while another runs stays queued
        service.health()
        running = service.submit(make_sweep(
            workloads=["spmv", "spkadd", "spmspm"]), client="platform")
        while service.job(running["id"])["state"] == "pending":
            time.sleep(0.02)
        queued = service.submit(make_sweep(
            workloads=["spmv"], inputs=["M2"]), client="platform")
        service.cancel(queued["id"])    # cancelled while queued
        service.cancel(running["id"])   # at its next batch boundary
        for job in (queued, running):
            state = service.wait(job["id"], timeout=120, poll=0.05)["state"]
            if state != "cancelled":
                failed.append(f"job {job['id'][:12]} ended {state}")
        try:
            urllib.request.urlopen(service.base_url + "/v1/no-such-route")
            failed.append("an unknown route did not answer 404")
        except urllib.error.HTTPError as exc:
            if exc.code != 404 or "error" not in json.loads(exc.read()):
                failed.append(f"an unknown route answered {exc.code}")
    thread = threading.Thread(target=client)
    thread.start()
    status = main(["serve", *argv])
    thread.join()
    if failed:
        sys.exit(failed[0])
else:
    if entry == "pytest":
        from pytest import main
    else:
        from repro.cli import main
    status = main(argv)
sys.setprofile(None)
threading.setprofile(None)
if status:
    sys.exit(f"{entry} exited with status {status}")
with open(out, "w") as fh:
    json.dump(sorted({(c.co_filename, c.co_firstlineno) for c in called}), fh)
"""


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def defs(path: Path) -> dict[int, str]:
    """First line (the first decorator's, as ``co_firstlineno`` counts
    it) -> qualified name of every function defined in ``path``."""
    found: dict[int, str] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found[first] = prefix + child.name
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), "")
    return found


def kept(module: str, name: str) -> str | None:
    """The consumer :data:`KEEP` names for function ``name`` of
    ``module``, or None."""
    for key, consumer in KEEP.items():
        prefix, _, qualname = key.partition(":")
        if qualname:
            if module == prefix and (name == qualname
                                     or name.startswith(qualname + ".")):
                return consumer
        elif module == prefix or module.startswith(prefix + "."):
            return consumer
    return None


def dunder(name: str) -> bool:
    last = name.rpartition(".")[2]
    return last.startswith("__") and last.endswith("__")


def stale_keep(functions: dict[str, dict[str, bool]]) -> list[str]:
    """The :data:`KEEP` entries that no longer hold: one that names a
    function a mode reaches, or a function or module that is gone.
    ``functions`` maps each module to ``{qualname: reached}``."""
    stale = []
    for key in KEEP:
        prefix, _, qualname = key.partition(":")
        if qualname:
            reached = functions.get(prefix, {}).get(qualname)
        else:
            under = [r for module, names in functions.items()
                     if module == prefix or module.startswith(prefix + ".")
                     for r in names.values()]
            reached = any(under) if under else None
        if reached is None:
            stale.append(f"{key} (no such function or module)")
        elif reached:
            stale.append(f"{key} (a mode reaches it)")
    return stale


def trace(argv: tuple[str, ...], tmp: str) -> set[tuple[str, int]]:
    """Run one session in a child under the profile hook and return
    the ``(resolved file, first line)`` of every code object it called.
    The child runs in ``tmp``, so whatever a session writes stays there."""
    # the Table 4 session appends no perf snapshot to the repo
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_BENCH_SNAPSHOT="0")
    out = Path(tmp) / "called.json"
    subprocess.run([sys.executable, "-c", _CHILD,
                    json.dumps([a.format(tmp=tmp) for a in argv]), str(out)],
                   cwd=tmp, env=env, check=True, capture_output=True)
    package = str(PACKAGE) + os.sep
    return {(path, line) for f, line in json.loads(out.read_text())
            if (path := str(Path(f).resolve())).startswith(package)}


def main() -> int:
    called: set[tuple[str, int]] = set()
    for mode, calls in MODES.items():
        here: set[tuple[str, int]] = set()
        with tempfile.TemporaryDirectory() as tmp:
            for argv in calls:
                try:
                    here |= trace(argv, tmp)
                except subprocess.CalledProcessError as exc:
                    print(f"{mode}: session {' '.join(argv)} failed "
                          f"(exit {exc.returncode})")
                    print(exc.stderr.decode(errors="replace")[-2000:])
                    return 1
        print(f"{mode}: {len(here)} code objects under src/repro called, "
              f"{len(here - called)} that no earlier mode called")
        called |= here

    functions: dict[str, dict[str, bool]] = {}
    unkept = []
    print()
    for path in sorted(PACKAGE.rglob("*.py")):
        found = defs(path)
        if not found:
            continue
        module = module_name(path)
        key = str(path.resolve())
        functions[module] = {name: (key, line) in called
                             for line, name in sorted(found.items())}
        unreached = [name for name, hit in functions[module].items()
                     if not hit]
        print(f"{module}: {len(found) - len(unreached)}/{len(found)} "
              "reached")
        for name in unreached:
            consumer = kept(module, name)
            if consumer is not None:
                print(f"    {name}  [kept: {consumer}]")
            elif dunder(name):
                print(f"    {name}  [dunder]")
            else:
                print(f"    {name}  [NOT KEPT]")
                unkept.append(f"{module}:{name}")

    stale = stale_keep(functions)
    for name in unkept:
        print(f"FAIL: {name} is unreached and not in KEEP")
    for entry in stale:
        print(f"FAIL: stale KEEP entry {entry}")
    if unkept or stale:
        return 1
    print("\nok: every unreached function is a dunder or in KEEP")
    return 0


if __name__ == "__main__":
    sys.exit(main())
