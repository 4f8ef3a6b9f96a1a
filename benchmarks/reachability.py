"""Reachability trace: which functions under ``src/repro`` does a paper
run call?

    PYTHONPATH=src python -m benchmarks.reachability

Each mode runs its sessions under ``sys.setprofile``, each session in
its own child process, so that no in-process memo (``run_workload``'s
``lru_cache``, the walk memos) answers for a later session.  The first
four run ``repro all --scale small --jobs 1`` (every cell in process):

* ``default``: ``--no-cache --walk-cache off``
* ``reference``: ``--reference``, the golden cache walk
* ``walk-warm``: ``--no-cache --walk-cache DIR`` twice; the first
  session fills the walk tier, the second reads every walk from it
* ``telemetry``: ``--no-cache --walk-cache off --telemetry PATH``

The last, ``table4``, runs ``pytest benchmarks/test_table4_mappings.py``
in process (``REPRO_BENCH_SNAPSHOT=0``): every Table 4 program on the
functional engine, the reference the timing models are checked against.

The code objects the sessions call are matched by file and first line
to every ``def`` under ``src/repro``.  The script prints the unreached
functions per module and exits 1 when a session fails or when a module
outside ``EXEMPT`` defines functions and reaches none of them.  The
``reference`` session takes most of the time: about 4 of the ≈5
minutes the trace takes on a 2-core VM.
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

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "repro"

#: module (or package prefix) -> the consumer that keeps it although
#: ``repro all`` may reach none of its functions
EXEMPT = {
    "repro.runtime": "platform layer: the cell runtime and its caches",
    "repro.serve": "platform layer: the job service (`repro serve`)",
    "repro.store": "platform layer: the experiment store (`repro query`)",
    "repro.obs": "platform layer: telemetry, tracing, `repro stats`",
    "repro.cli": "platform layer: the CLI subcommands",
    "repro.tmu.context": "§5.6 context save/restore "
                         "(tests/test_tmu_context_area.py)",
    "repro.compiler": "einsum lowering to a Program (ROADMAP item 2)",
    "repro.kernels.cpals": "CP-ALS (examples/tensor_decomposition.py) "
                           "and characterize_cpals (ROADMAP item 7)",
}

_ALL = ("repro", "all", "--scale", "small", "--jobs", "1")
_COLD = (*_ALL, "--no-cache", "--walk-cache", "off")
_TABLE4 = Path(__file__).resolve().parent / "test_table4_mappings.py"

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
}

#: the child: install the profile hook before ``repro`` is imported,
#: run one session, then write the ``(file, first line)`` of every code
#: object it called
_CHILD = """
import json, sys
called = set()
def hook(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)
entry, *argv = json.loads(sys.argv[1])
sys.setprofile(hook)
if entry == "pytest":
    from pytest import main
else:
    from repro.cli import main
status = main(argv)
sys.setprofile(None)
if status:
    sys.exit(f"{entry} exited with status {status}")
with open(sys.argv[2], "w") as fh:
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
    the ``(resolved file, first line)`` of every code object it called."""
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
