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

``table4`` runs ``pytest benchmarks/test_table4_mappings.py`` in
process (``REPRO_BENCH_SNAPSHOT=0``): every Table 4 program on the
functional engine, the reference the timing models are checked against.

``platform`` runs what else the repo ships and CI runs: the command
steps of CI's ``bench-smoke`` and ``store-smoke`` jobs in their order
(a traced, snapshotted ``fig13`` smoke run, ``stats``, ``trace``,
``ingest`` and ``query``), ``report`` over the resulting store,
``cache-gc`` and ``cache-clear`` on a cache one ``fig10`` run filled,
one service session, ``ingest`` of the smoke run's trace and of the
service's job journal, and every ``examples/*.py`` in process as
``__main__``.  The service session runs ``repro serve --port 0`` with
``--store`` in the child's main thread while a client thread runs
``submit --wait``, ``jobs`` and ``fetch --out`` against it and then
interrupts the server with ``SIGINT``, the way Ctrl-C stops it.

The code objects the sessions call are matched by file and first line
to every ``def`` under ``src/repro``.  The script prints the unreached
functions per module and exits 1 when a session fails or when a module
outside ``EXEMPT`` defines functions and reaches none of them.  The
``reference`` session takes most of the time: about 4 of the ≈5
minutes the first five modes take on a 2-core VM; ``platform`` adds
about 30 seconds.  A session's cells that run in
``--jobs 2`` pool workers are not collected: only the parent process
writes what it called.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
PACKAGE = SRC / "repro"

#: module (or package prefix) -> the consumer that keeps it although
#: no mode reaches any of its functions
EXEMPT = {
    "repro.tmu.context": "§5.6 context save/restore "
                         "(tests/test_tmu_context_area.py)",
}

_ALL = ("repro", "all", "--scale", "small", "--jobs", "1")
_COLD = (*_ALL, "--no-cache", "--walk-cache", "off")
_TABLE4 = Path(__file__).resolve().parent / "test_table4_mappings.py"

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
    "table4": [("pytest", str(_TABLE4), "-q", "-p", "no:cacheprovider",
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
         "{tmp}/serve-state/jobs", *_SERVE_DB),
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
#: the service CLI, sends ``SIGINT``.
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
    from repro.cli import main
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
        except Exception as exc:
            failed.append(repr(exc))
        finally:
            os.kill(os.getpid(), signal.SIGINT)
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


def exemption(module: str) -> str | None:
    for prefix, consumer in EXEMPT.items():
        if module == prefix or module.startswith(prefix + "."):
            return consumer
    return None


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
                    print(f"{mode}: session failed ({exc})")
                    print(exc.stderr.decode(errors="replace")[-2000:])
                    return 1
        print(f"{mode}: {len(here)} code objects under src/repro called, "
              f"{len(here - called)} that no earlier mode called")
        called |= here

    dead = []
    print()
    for path in sorted(PACKAGE.rglob("*.py")):
        functions = defs(path)
        if not functions:
            continue
        module = module_name(path)
        key = str(path.resolve())
        unreached = [name for line, name in sorted(functions.items())
                     if (key, line) not in called]
        consumer = exemption(module)
        reached = len(functions) - len(unreached)
        note = f"  [exempt: {consumer}]" if consumer else ""
        print(f"{module}: {reached}/{len(functions)} reached{note}")
        if unreached:
            print(textwrap.fill(", ".join(unreached), width=79,
                                initial_indent="    ",
                                subsequent_indent="    "))
        if not reached and consumer is None:
            dead.append(module)

    if dead:
        print(f"\nFAIL: no function reached in {', '.join(dead)}")
        return 1
    print("\nok: every module outside the exempt list reaches a function")
    return 0


if __name__ == "__main__":
    sys.exit(main())
