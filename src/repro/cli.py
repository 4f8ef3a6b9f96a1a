"""Command-line entry point: regenerate any table or figure.

Usage::

    python -m repro fig10 [--scale small|medium|paper] [--jobs 4]
    python -m repro all --scale small --cache-dir .repro-cache
    python -m repro fig10 --workloads spmv,spkadd --jobs 2 --no-cache
    python -m repro fig13 --telemetry run.json   # write a perf snapshot
    python -m repro stats dump run.json          # inspect a snapshot
    python -m repro stats diff base.json run.json --changed-only
    python -m repro fig13 --trace trace.json     # record an event timeline
    python -m repro fig13 --no-cache --trace trace.json --trace-sample 4
    python -m repro trace export trace.json      # Perfetto-loadable JSON
    python -m repro trace report trace.json      # stall attribution
    python -m repro fig13 --profile 20    # cProfile bottleneck dump
    python -m repro fig13 --walk-cache off    # skip the walk cache
    python -m repro cache-gc          # reclaim stale cache entries
    python -m repro serve --port 8321            # simulation job service
    python -m repro submit --workloads spmv,spkadd --wait
    python -m repro jobs                         # list service jobs
    python -m repro fetch <job-id> --out results.json
    python -m repro fig13 --store results.sqlite # file the run
    python -m repro ingest BENCH_*.json --store results.sqlite
    python -m repro query cells-per-sec --by rev --store results.sqlite
    python -m repro query regressions --bound 0.2 --store results.sqlite
    python -m repro report --store results.sqlite --out report.html
    tmu-repro table6

Simulation cells are executed through :mod:`repro.runtime`: results
are cached content-addressed under ``--cache-dir`` (default
``.repro-cache``), ``--jobs N`` fans cache misses out over N worker
processes, and every invocation writes one run manifest (task hashes,
wall times, cache hits, failures) next to the cache.

``--telemetry PATH`` enables the :mod:`repro.obs` layer for the run and
writes a schema-versioned perf snapshot to PATH; ``stats`` dumps and
diffs such snapshots.  ``repro query regressions`` gates them once they
are ingested (see ``--store`` below).

``--trace [PATH]`` additionally records an event timeline
(:mod:`repro.obs.tracing`) and writes a ``repro.trace/1`` JSON file;
``trace export`` converts it to Perfetto-loadable JSON and ``trace
report`` folds it into a per-component stall/cycle decomposition.
Add ``--no-cache`` so every distinct cell is simulated, and so traced
(a cell repeated within the run is answered from memory, as cached).

``serve`` runs the long-lived simulation job service
(:mod:`repro.serve`); ``submit``, ``jobs`` and ``fetch`` talk to it
over HTTP — submit a declarative sweep, watch its progress, fetch its
content-addressed results.

``--store PATH`` files the invocation as one run (its manifest, plus
its telemetry snapshot and trace when recorded) in the queryable
experiment database (:mod:`repro.store`), failed runs included;
``ingest`` feeds it existing result files and ``query`` runs cross-run
analytics over it — including the ``regressions`` gate the
``store-smoke`` CI job exits on.

``report`` renders that database as a self-contained HTML flight
recorder (:mod:`repro.obs.report`): inline SVG charts for cells/sec
by rev and per-layer stall shares, plus run/cell/span tables — one
file with no external assets, built from the same query functions as
``repro query`` so the numbers always agree.

Every command shares one error policy (:func:`main`): a
:class:`~repro.errors.ReproError` prints ``error: ...`` on stderr and
exits 2, and a closed stdout pipe (``| head``) exits 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import obs, runtime
from .errors import ReproError, StoreError
from .eval import experiments as ex
from .sim.memsys import configure_reference

#: name -> callable(scale, workloads); drivers without a workload
#: filter ignore the second argument.
_COMMANDS = {
    "fig03": lambda scale, w: ex.render_fig03(ex.fig03_motivation(scale)),
    "fig10": lambda scale, w: ex.render_fig10(
        ex.fig10_speedups(scale, workloads=w or ex.FIG10_WORKLOADS)),
    "fig11": lambda scale, w: ex.render_fig11(
        ex.fig11_breakdown(scale, workloads=w or ex.FIG10_WORKLOADS)),
    "fig12": lambda scale, w: ex.render_fig12(ex.fig12_roofline(scale)),
    "fig13": lambda scale, w: ex.render_fig13(
        ex.fig13_read_to_write(scale, workloads=w or ex.FIG10_WORKLOADS)),
    "fig14": lambda scale, w: ex.render_fig14(
        ex.fig14_sensitivity(scale,
                             workloads=w or ("spmv", "spmspm"))),
    "fig15": lambda scale, w: ex.render_fig15(
        ex.fig15_state_of_the_art(scale)),
    "table5": lambda scale, w: ex.render_table5(
        ex.table5_parameters(scale)),
    "table6": lambda scale, w: ex.render_table6(ex.table6_inputs(scale)),
    "area": lambda scale, w: ex.render_area(ex.area_results()),
}

_CACHE_COMMANDS = ("cache-gc", "cache-clear")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmu-repro",
        description=(
            "Regenerate the tables and figures of 'A Tensor Marshaling "
            "Unit for Sparse Tensor Algebra on General-Purpose "
            "Processors' (MICRO 2023)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_COMMANDS) + ["all"] + list(_CACHE_COMMANDS),
        help="which artifact to regenerate (or a cache maintenance "
             "action: cache-gc reclaims result and walk records "
             "from older code versions or walk schemas, cache-clear "
             "drops both; --walk-cache selects the walk tier)",
    )
    parser.add_argument(
        "--scale",
        default="small",
        choices=("small", "medium", "paper"),
        help="input/cache scale preset (default: small)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="DIR",
        help="also write each artifact to DIR/<name>.txt",
    )
    parser.add_argument(
        "--jobs", "-j",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for simulation cells (default: 1, "
             "serial in-process)",
    )
    parser.add_argument(
        "--cache-dir",
        default=runtime.DEFAULT_CACHE_DIR,
        metavar="DIR",
        help="content-addressed result cache location (default: "
             f"{runtime.DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache for this run; a cell "
             "repeated within the run is answered from memory and "
             "reported as cached",
    )
    parser.add_argument(
        "--walk-cache",
        default="auto",
        metavar="DIR|off",
        help="persistent hierarchy walk cache: 'auto' (default) keeps "
             "it at <cache-dir>/walks, a path pins it elsewhere, 'off' "
             "disables it",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        type=int,
        const=25,
        default=None,
        metavar="N",
        help="wrap the run in cProfile and print the top N functions "
             "by cumulative time to stderr (default N: 25)",
    )
    parser.add_argument(
        "--workloads",
        default=None,
        metavar="W1,W2",
        help="comma-separated workload filter for fig10/fig11/fig13/"
             "fig14 (e.g. spmv,spkadd)",
    )
    parser.add_argument(
        "--reference",
        action="store_true",
        help="classify cache hits with the golden-reference cache "
             "walk instead of the stack-distance model (slow; "
             "bit-for-bit equivalent: same hit masks and results).  "
             "Implies --no-cache and --walk-cache off: no cache "
             "directory answers a reference run",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SEC",
        help="per-cell timeout in seconds (enforced in --jobs>1 mode)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="retry budget per failed cell (default: 1)",
    )
    parser.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help="write the run manifest to PATH (default: "
             "<cache-dir>/manifests/run-<timestamp>.json when caching "
             "is enabled)",
    )
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="enable the repro.obs telemetry layer for this run and "
             "write a perf snapshot (JSON) to PATH; inspect it with "
             "'tmu-repro stats'",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        const="trace.json",
        default=None,
        metavar="PATH",
        help="enable event tracing for this run and write a "
             "repro.trace timeline (JSON) to PATH (default: "
             "trace.json); consume it with 'tmu-repro trace'",
    )
    parser.add_argument(
        "--trace-capacity",
        type=int,
        default=65536,
        metavar="N",
        help="trace ring-buffer capacity in events; the oldest "
             "fine-grained events are dropped beyond it (default: "
             "65536)",
    )
    parser.add_argument(
        "--trace-sample",
        type=int,
        default=1,
        metavar="N",
        help="keep every Nth instant/counter trace event (spans are "
             "always kept; default: 1 = everything)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DB",
        help="file this run, as one row, in the experiment database "
             "at DB: its manifest, plus the --telemetry snapshot and "
             "--trace timeline when recorded; analyze it with "
             "'tmu-repro query'",
    )
    return parser


# ------------------------------------------------------------------- trace

def _build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmu-repro trace",
        description="Export and analyze the repro.trace event timelines "
                    "that '<experiment> --trace PATH' records.",
    )
    sub = parser.add_subparsers(dest="action", required=True)

    export = sub.add_parser(
        "export", help="validate a trace and export Perfetto-loadable "
                       "JSON (open it at https://ui.perfetto.dev)")
    export.add_argument("trace", help="repro.trace JSON file")
    export.add_argument("--out", default=None, metavar="PATH",
                        help="output path (default: "
                             "<trace>.perfetto.json)")

    report = sub.add_parser(
        "report", help="fold a trace into the per-component "
                       "stall/cycle decomposition")
    report.add_argument("trace", help="repro.trace JSON file")
    return parser


def _trace_main(argv: list[str]) -> int:
    args = _build_trace_parser().parse_args(argv)
    trace = obs.load_trace(args.trace)
    if args.action == "export":
        out = args.out
        if out is None:
            out = str(Path(args.trace).with_suffix("")) + ".perfetto.json"
        path = obs.write_perfetto(trace, out)
        print(f"perfetto export: {path} ({len(trace['events'])} events)")
        return 0
    print(obs.stall_report(trace))
    return 0


# ------------------------------------------------------------------- stats

def _build_stats_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmu-repro stats",
        description="Dump and diff repro.obs perf snapshots (gate them "
                    "with 'tmu-repro ingest' and 'tmu-repro query "
                    "regressions').",
    )
    sub = parser.add_subparsers(dest="action", required=True)

    dump = sub.add_parser(
        "dump", help="validate a snapshot and print its metrics")
    dump.add_argument("snapshot", help="snapshot JSON file")
    dump.add_argument("--json", action="store_true",
                      help="re-emit the validated snapshot as JSON")

    diff = sub.add_parser(
        "diff", help="compare two snapshots metric by metric "
                     "(A = baseline, B = run)")
    diff.add_argument("baseline", help="baseline snapshot JSON file")
    diff.add_argument("run", help="run snapshot JSON file")
    diff.add_argument("--changed-only", action="store_true",
                      help="hide metrics with a zero delta")
    return parser


def _stats_main(argv: list[str]) -> int:
    args = _build_stats_parser().parse_args(argv)
    if args.action == "dump":
        snap = obs.load_snapshot(args.snapshot)
        if args.json:
            print(json.dumps(snap, indent=2, sort_keys=True))
        else:
            print(obs.render_snapshot(snap))
        return 0
    baseline = obs.load_snapshot(args.baseline)
    run = obs.load_snapshot(args.run)
    print(obs.render_diff(obs.diff_snapshots(baseline, run),
                          changed_only=args.changed_only))
    return 0


# ------------------------------------------------------------------- store

def _build_ingest_parser() -> argparse.ArgumentParser:
    from .store import DEFAULT_STORE_PATH

    parser = argparse.ArgumentParser(
        prog="tmu-repro ingest",
        description="Ingest result files into the experiment database: "
                    "run manifests, repro.obs snapshots (including "
                    "BENCH_<rev>.json trajectory points), serve-job "
                    "journals and repro.trace timelines.  Directories "
                    "are walked for *.json; ingest is idempotent "
                    "(content-addressed run keys).",
    )
    parser.add_argument("paths", nargs="+", metavar="PATH",
                        help="result files or directories (e.g. "
                             "BENCH_*.json, .repro-cache/manifests, "
                             ".repro-serve/jobs)")
    parser.add_argument("--store", default=DEFAULT_STORE_PATH,
                        metavar="DB",
                        help="experiment database (default: "
                             f"{DEFAULT_STORE_PATH})")
    parser.add_argument("--rev", default=None, metavar="REV",
                        help="file sources missing a rev under this "
                             "label (default: whatever the file "
                             "carries)")
    return parser


def _build_query_parser() -> argparse.ArgumentParser:
    from .store import DEFAULT_STORE_PATH, FORMATS, HEADLINE_METRIC

    parser = argparse.ArgumentParser(
        prog="tmu-repro query",
        description="Cross-run analytics over the experiment database "
                    "(see 'tmu-repro ingest').",
    )
    parser.add_argument("--store", default=DEFAULT_STORE_PATH,
                        metavar="DB",
                        help="experiment database (default: "
                             f"{DEFAULT_STORE_PATH})")
    parser.add_argument("--format", default="table", choices=FORMATS,
                        help="output rendering (default: table)")
    # the same flags are accepted after the subcommand too
    # (SUPPRESS keeps the subparser from clobbering the defaults above)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--store", default=argparse.SUPPRESS,
                        metavar="DB", help=argparse.SUPPRESS)
    common.add_argument("--format", default=argparse.SUPPRESS,
                        choices=FORMATS, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="action", required=True)

    sub.add_parser("runs", parents=[common],
                   help="every ingested run with its "
                        "aggregate stats, oldest first")

    cps = sub.add_parser(
        "cells-per-sec", parents=[common],
        help="the headline throughput metric across history")
    cps.add_argument("--by", default="rev", choices=("rev", "run"),
                     help="group by git rev or list every run "
                          "(default: rev)")

    metric = sub.add_parser(
        "metric", parents=[common],
        help="any snapshot metric across history")
    metric.add_argument("name", help="dotted metric name (e.g. "
                                     "sim.core.mlp)")
    metric.add_argument("--by", default="rev", choices=("rev", "run"))

    cells = sub.add_parser(
        "cells", parents=[common],
        help="per-workload cell outcome aggregates")
    cells.add_argument("--workload", default=None, metavar="W",
                       help="restrict to one workload")

    stalls = sub.add_parser(
        "stalls", parents=[common],
        help="TMU merge-stall shares from ingested traces")
    stalls.add_argument("--by", default="layer",
                        choices=("layer", "rev", "workload"),
                        help="group by TG layer, git rev, or the "
                             "trace's workload filter (default: "
                             "layer)")

    reg = sub.add_parser(
        "regressions", parents=[common],
        help="gate every run's headline metric against a baseline "
             "run; exits 1 when the latest run regressed beyond "
             "--bound (the store-smoke CI gate)")
    reg.add_argument("--metric", default=HEADLINE_METRIC, metavar="NAME",
                     help=f"metric to gate on (default: "
                          f"{HEADLINE_METRIC})")
    reg.add_argument("--baseline", default=None, metavar="REV",
                     help="baseline rev ('best' picks the best run; "
                          "default: the oldest run)")
    reg.add_argument("--bound", type=float, default=0.2, metavar="FRAC",
                     help="tolerated regression fraction "
                          "(default: 0.2 = 20%%)")
    reg.add_argument("--lower-is-better", action="store_true",
                     help="treat increases as regressions (cycle or "
                          "byte counts rather than rates)")
    return parser


def _ingest_main(argv: list[str]) -> int:
    from . import store as st

    args = _build_ingest_parser().parse_args(argv)
    with st.ExperimentStore(args.store) as db:
        results = st.ingest_paths(db, args.paths, rev=args.rev)
        counts = db.counts()
    created = sum(1 for r in results if r["created"])
    by_kind: dict[str, int] = {}
    for r in results:
        by_kind[r["kind"]] = by_kind.get(r["kind"], 0) + 1
    kinds = ", ".join(f"{n} {kind}" for kind, n in sorted(by_kind.items()))
    print(f"ingest: {len(results)} sources ({created} new, "
          f"{len(results) - created} already ingested"
          + (f"; {kinds}" if kinds else "") + ")")
    print(f"store: {args.store} — {counts['runs']} runs, "
          f"{counts['cells']} cells, {counts['metrics']} metrics, "
          f"{counts['trace_summaries']} trace summaries")
    return 0


def _query_main(argv: list[str]) -> int:
    from . import store as st

    args = _build_query_parser().parse_args(argv)
    gate_ok = True
    with st.ExperimentStore(args.store) as db:
        if args.action == "runs":
            rows, columns = st.runs_overview(db)
        elif args.action == "cells-per-sec":
            rows, columns = st.cells_per_sec(db, by=args.by)
        elif args.action == "metric":
            rows, columns = st.metric_history(db, args.name, by=args.by)
        elif args.action == "cells":
            rows, columns = st.cell_outcomes(db, args.workload)
        elif args.action == "stalls":
            rows, columns = st.stall_shares(db, by=args.by)
        else:  # regressions
            rows, columns, gate_ok = st.regressions(
                db, metric=args.metric, baseline=args.baseline,
                bound=args.bound, lower_is_better=args.lower_is_better)
    print(st.render_rows(rows, columns, args.format))
    if args.action == "regressions" and args.format == "table":
        latest = rows[-1]
        if latest["status"] == "baseline":
            print(f"ok {args.metric}: latest run is the baseline, "
                  f"nothing to gate")
        elif latest["change"] is None:
            print(f"ok {args.metric}: baseline is 0, nothing to gate")
        else:
            verdict = "ok" if gate_ok else "REGRESSION"
            print(f"{verdict} {args.metric}: "
                  f"latest={_fmt_cli(latest['value'])} "
                  f"change={latest['change']:+.1%} vs baseline "
                  f"(limit -{args.bound:.0%})")
    return 0 if gate_ok else 1


def _fmt_cli(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(value)


# ------------------------------------------------------------------ report

def _build_report_parser() -> argparse.ArgumentParser:
    from .store import DEFAULT_STORE_PATH as default_store

    parser = argparse.ArgumentParser(
        prog="tmu-repro report",
        description="Render the experiment database as a self-"
                    "contained HTML flight recorder (inline SVG "
                    "charts, no external assets).",
    )
    parser.add_argument("--store", default=default_store, metavar="DB",
                        help="experiment database to render "
                             f"(default: {default_store})")
    parser.add_argument("--out", default="report.html", metavar="PATH",
                        help="output HTML file (default: report.html)")
    parser.add_argument("--title", default="repro flight recorder",
                        metavar="TITLE", help="page title")
    return parser


def _report_main(argv: list[str]) -> int:
    from .obs.report import write_report
    from .store import ExperimentStore

    args = _build_report_parser().parse_args(argv)
    if not Path(args.store).exists():
        # opening would silently create an empty database; a report
        # over nothing is a typo'd path, not a request
        raise StoreError(f"no experiment database at {args.store}")
    with ExperimentStore(args.store) as db:
        runs = db.counts()["runs"]
        path = write_report(db, args.out, title=args.title)
    print(f"report: {path} ({runs} runs from {args.store})")
    return 0


# ------------------------------------------------------------------- serve

def _build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmu-repro serve",
        description="Run the simulation job service: accepts sweep "
                    "submissions over HTTP, executes them through the "
                    "experiment runtime, serves results by content "
                    "hash.",
    )
    from .serve import DEFAULT_HOST, DEFAULT_PORT, DEFAULT_STATE_DIR

    parser.add_argument("--host", default=DEFAULT_HOST,
                        help=f"bind address (default: {DEFAULT_HOST})")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"bind port, 0 for ephemeral (default: "
                             f"{DEFAULT_PORT})")
    parser.add_argument("--port-file", default=None, metavar="PATH",
                        help="write the bound port to PATH once "
                             "listening (handy with --port 0)")
    parser.add_argument("--state-dir", default=DEFAULT_STATE_DIR,
                        metavar="DIR",
                        help="job journal location (default: "
                             f"{DEFAULT_STATE_DIR})")
    parser.add_argument("--cache-dir", default=runtime.DEFAULT_CACHE_DIR,
                        metavar="DIR",
                        help="content-addressed result cache (default: "
                             f"{runtime.DEFAULT_CACHE_DIR})")
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        metavar="N",
                        help="worker processes per executor batch "
                             "(default: 1)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="concurrent jobs (scheduler worker "
                             "threads; default: 1)")
    parser.add_argument("--quota", type=int, default=8, metavar="N",
                        help="max active jobs per client (default: 8)")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SEC", help="per-cell timeout")
    parser.add_argument("--retries", type=int, default=1, metavar="N",
                        help="retry budget per failed cell "
                             "(default: 1)")
    parser.add_argument("--batch-size", type=int, default=None,
                        metavar="N",
                        help="cells per executor batch (cancel/"
                             "journal granularity; default: 8)")
    parser.add_argument("--no-telemetry", action="store_true",
                        help="skip the repro.obs service gauges")
    parser.add_argument("--store", default=None, metavar="DB",
                        help="file every finished job, once, in the "
                             "experiment database at DB")
    parser.add_argument("--log-level", default="info",
                        choices=("debug", "info", "warning", "error"),
                        help="structured JSON log level on stderr "
                             "(default: info)")
    return parser


def _build_submit_parser() -> argparse.ArgumentParser:
    from .serve import DEFAULT_URL

    parser = argparse.ArgumentParser(
        prog="tmu-repro submit",
        description="Submit a declarative sweep to a running "
                    "simulation service.",
    )
    parser.add_argument("--url", default=DEFAULT_URL,
                        help=f"service URL (default: {DEFAULT_URL})")
    parser.add_argument("--workloads", required=True, metavar="W1,W2",
                        help="comma-separated workloads to sweep")
    parser.add_argument("--inputs", default=None, metavar="I1,I2",
                        help="comma-separated inputs (default: each "
                             "workload's full suite)")
    parser.add_argument("--scale", default="small",
                        choices=("small", "medium", "paper"))
    parser.add_argument("--variants", default="baseline,tmu",
                        metavar="V1,V2",
                        help="system variants per cell (default: "
                             "baseline,tmu)")
    parser.add_argument("--client", default="cli",
                        help="client id for quota accounting "
                             "(default: cli)")
    parser.add_argument("--priority", type=int, default=0,
                        help="higher runs sooner (default: 0)")
    parser.add_argument("--wait", action="store_true",
                        help="poll until the job finishes, printing "
                             "progress events")
    parser.add_argument("--json", action="store_true",
                        help="print the raw job record as JSON")
    return parser


def _build_fetch_parser() -> argparse.ArgumentParser:
    from .serve import DEFAULT_URL

    parser = argparse.ArgumentParser(
        prog="tmu-repro fetch",
        description="Fetch a service job's result records (waits for "
                    "completion with --wait).",
    )
    parser.add_argument("job", help="job id (from 'repro submit')")
    parser.add_argument("--url", default=DEFAULT_URL)
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the result JSON to PATH instead "
                             "of stdout")
    parser.add_argument("--wait", action="store_true",
                        help="poll until the job reaches a terminal "
                             "state first")
    return parser


def _build_jobs_parser() -> argparse.ArgumentParser:
    from .serve import DEFAULT_URL

    parser = argparse.ArgumentParser(
        prog="tmu-repro jobs",
        description="List the jobs of a running simulation service.",
    )
    parser.add_argument("--url", default=DEFAULT_URL)
    parser.add_argument("--json", action="store_true",
                        help="print raw job records as JSON")
    return parser


def _serve_main(argv: list[str]) -> int:
    import logging as pylog

    from .serve import SimService, make_server

    args = _build_serve_parser().parse_args(argv)
    # the service logs structured JSON to stderr — one object per
    # line, every record carrying its correlation context.
    obs.configure_logging(level=args.log_level)
    log = obs.get_logger("serve")
    try:
        service = SimService(
            state_dir=args.state_dir, cache_dir=args.cache_dir,
            jobs=args.jobs, workers=args.workers, quota=args.quota,
            timeout=args.timeout, retries=args.retries,
            batch_size=args.batch_size,
            telemetry=not args.no_telemetry,
            db_path=args.store)
        recovered = service.start()
        server = make_server(service, host=args.host, port=args.port)
    except OSError as exc:  # a taken port, an unwritable state dir
        print(f"error: {exc}", file=sys.stderr)
        return 2
    port = server.server_address[1]
    if args.port_file:
        Path(args.port_file).write_text(str(port), encoding="utf-8")
    obs.log_event(log, pylog.INFO, "listening",
                  url=f"http://{args.host}:{port}",
                  state_dir=str(args.state_dir),
                  cache_dir=str(args.cache_dir),
                  workers=args.workers, jobs=args.jobs,
                  recovered=recovered)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        obs.log_event(log, pylog.INFO, "shutting down")
    finally:
        server.shutdown()
        service.stop()
    return 0


def _submit_main(argv: list[str]) -> int:
    from .serve import ServeClient, make_sweep

    args = _build_submit_parser().parse_args(argv)

    def split(s: str) -> tuple[str, ...]:
        return tuple(x.strip() for x in s.split(",") if x.strip())

    sweep = make_sweep(
        workloads=split(args.workloads),
        inputs=split(args.inputs) if args.inputs else None,
        scale=args.scale, variants=split(args.variants))
    client = ServeClient(args.url)
    job = client.submit(sweep, client=args.client, priority=args.priority)
    created = job.get("_created", True)
    if args.wait:
        job = client.wait(
            job["id"],
            on_event=lambda e: print(e.get("message", e["event"]),
                                     file=sys.stderr))
        job["_created"] = created
    if args.json:
        print(json.dumps(job, indent=2, sort_keys=True))
    else:
        print(f"job {job['id']}")
        print(f"  state: {job['state']}"
              + ("" if job.get("_created", True) else
                 " (deduplicated onto an existing job)"))
        print(f"  cells: {job['total']} "
              f"(completed {job['completed']}, cached {job['cached']}, "
              f"simulated {job['simulated']}, failed {job['failed']})")
    return 0 if job["state"] in ("pending", "running", "done") else 1


def _jobs_main(argv: list[str]) -> int:
    args = _build_jobs_parser().parse_args(argv)
    from .serve import ServeClient

    jobs = ServeClient(args.url).jobs()
    if args.json:
        print(json.dumps(jobs, indent=2, sort_keys=True))
        return 0
    if not jobs:
        print("no jobs")
        return 0
    print(f"{'job':12}  {'state':9}  {'client':10}  "
          f"{'cells':>5}  {'done':>4}  {'cached':>6}  workloads")
    for job in jobs:
        print(f"{job['id'][:12]}  {job['state']:9}  "
              f"{job['client'][:10]:10}  {job['total']:>5}  "
              f"{job['completed']:>4}  {job['cached']:>6}  "
              f"{','.join(job['sweep'].get('workloads', []))}")
    return 0


def _fetch_main(argv: list[str]) -> int:
    args = _build_fetch_parser().parse_args(argv)
    from .serve import ServeClient

    client = ServeClient(args.url)
    if args.wait:
        client.wait(args.job)
    result = client.result(args.job)
    rendered = json.dumps(result, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(rendered + "\n", encoding="utf-8")
        print(f"results: {args.out} ({len(result['records'])} records, "
              f"{result['missing']} missing)", file=sys.stderr)
    else:
        print(rendered)
    return 0 if result["job"]["state"] == "done" else 1


def _run_cache_command(action: str, args) -> int:
    if args.no_cache:
        print("cache maintenance requires the cache; drop --no-cache",
              file=sys.stderr)
        return 2
    cache = runtime.ResultCache(Path(args.cache_dir))
    # the walk tier the same flags give an experiment run
    walk_dir = runtime.resolve_walk_dir(args.walk_cache, cache.root)
    walks = [] if walk_dir is None else [runtime.WalkStore(walk_dir)]
    if action == "cache-gc":
        removed = cache.gc()
        print(f"cache-gc: reclaimed {removed} stale entries from "
              f"{cache.root} ({len(cache)} live)")
        for store in walks:
            removed = store.gc()
            print(f"cache-gc: reclaimed {removed} stale walks from "
                  f"{store.root} ({len(store)} live)")
    else:
        removed = cache.invalidate()
        print(f"cache-clear: removed {removed} entries from {cache.root}")
        for store in walks:
            print(f"cache-clear: removed {store.clear()} walks from "
                  f"{store.root}")
    return 0


def _experiment_main(argv: list[str]) -> int:
    args = _build_parser().parse_args(argv)

    if args.experiment in _CACHE_COMMANDS:
        return _run_cache_command(args.experiment, args)

    if args.telemetry is not None:
        obs.enable()
    if args.trace is not None:
        obs.enable_tracing(capacity=args.trace_capacity,
                           sample_every=args.trace_sample)

    workloads = None
    if args.workloads:
        workloads = tuple(w.strip() for w in args.workloads.split(",")
                          if w.strip())

    # A golden-reference run computes every cell and walk: it never
    # reads what a fast run cached.
    no_cache = args.no_cache or args.reference
    summaries = set()   # batch summaries already on stderr

    def progress(event) -> None:
        if event.kind == "summary":
            summaries.add(event.message)
        print(event, file=sys.stderr)

    rt = runtime.configure(
        jobs=args.jobs,
        cache_dir=None if no_cache else args.cache_dir,
        timeout=args.timeout,
        retries=args.retries,
        progress=progress,
        walk_cache="off" if args.reference else args.walk_cache,
        reference=args.reference,
    )

    out_dir = None
    if args.output is not None:
        out_dir = Path(args.output)
        out_dir.mkdir(parents=True, exist_ok=True)

    names = sorted(_COMMANDS) if args.experiment == "all" else [
        args.experiment]
    profiler = None
    if args.profile is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    status = 0
    try:
        for name in names:
            rendered = _COMMANDS[name](args.scale, workloads)
            print(rendered)
            print()
            if out_dir is not None:
                (out_dir / f"{name}.txt").write_text(rendered + "\n",
                                                     encoding="utf-8")
    except ReproError as exc:
        # a failed run still writes and files its record below
        print(f"error: {exc}", file=sys.stderr)
        status = 1  # a cell failed: not a usage error
    except BrokenPipeError:
        # a cut-short run leaves no telemetry switched on
        obs.disable()
        obs.disable_tracing()
        raise
    finally:
        # restore the fast model so embedded callers (tests, notebooks)
        # see the default again
        configure_reference(False)
        if profiler is not None:
            import io
            import pstats

            profiler.disable()
            buf = io.StringIO()
            stats = pstats.Stats(profiler, stream=buf)
            stats.sort_stats("cumulative").print_stats(args.profile)
            print(buf.getvalue(), file=sys.stderr)

    snap = trace = None
    if args.telemetry is not None:
        snap = obs.snapshot(meta={
            "experiments": ",".join(names),
            "scale": args.scale,
            "jobs": args.jobs,
            "workloads": args.workloads or "all",
            "cache_model": "reference" if args.reference else "fast",
        })
        obs.disable()
        path = obs.write_snapshot(snap, args.telemetry)
        print(f"telemetry snapshot: {path}", file=sys.stderr)

    if args.trace is not None:
        trace = obs.trace_snapshot(meta={
            "experiments": ",".join(names),
            "scale": args.scale,
            "jobs": args.jobs,
            "workloads": args.workloads or "all",
        })
        obs.disable_tracing()
        path = obs.write_trace(trace, args.trace)
        print(f"trace: {path} ({len(trace['events'])} events, "
              f"{trace['ticks']} ticks, {trace['dropped']} dropped)",
              file=sys.stderr)

    manifest = rt.manifest
    if manifest is None:
        return status
    summary = manifest.summary()
    if summary not in summaries:   # a one-batch run printed it already
        print(summary, file=sys.stderr)
    manifest_path = args.manifest
    if manifest_path is None and not no_cache:
        # millisecond stamp + pid so back-to-back invocations never
        # overwrite each other's provenance
        manifest_path = (
            Path(args.cache_dir) / "manifests" /
            f"run-{int(time.time() * 1000)}-{os.getpid()}.json")
    if manifest_path is not None:
        manifest_path = manifest.write(manifest_path)
        print(f"manifest: {manifest_path}", file=sys.stderr)
    if args.store is not None:
        from .store import ExperimentStore, ingest_manifest

        try:
            with ExperimentStore(args.store) as db:
                ingest_manifest(
                    db, manifest, snapshot=snap, trace=trace,
                    source=str(manifest_path or f"cli:{args.experiment}"))
            print(f"store: filed run in {args.store}", file=sys.stderr)
        except ReproError as exc:
            print(f"store ingest failed: {exc}", file=sys.stderr)
    return status


#: first argument -> handler of the rest; any other first argument
#: names an experiment (or a cache action)
_SUBCOMMANDS = {
    "stats": _stats_main,
    "trace": _trace_main,
    "ingest": _ingest_main,
    "query": _query_main,
    "report": _report_main,
    "serve": _serve_main,
    "submit": _submit_main,
    "jobs": _jobs_main,
    "fetch": _fetch_main,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _SUBCOMMANDS:
        command, argv = _SUBCOMMANDS[argv[0]], argv[1:]
    else:
        command = _experiment_main
    try:
        return command(argv)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (``| head``) after taking what it
        # wanted: success; closing stderr mutes the interpreter's
        # epilogue about the unflushed pipe
        sys.stderr.close()
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
