"""Command-line interface.

``repro-rankagg`` exposes the library's main entry points from the shell:

* ``aggregate``  — aggregate a dataset file into a consensus ranking;
* ``describe``   — print the features of a dataset (size, ties, similarity);
* ``recommend``  — print the guidance-engine recommendation for a dataset;
* ``generate``   — generate a synthetic dataset (uniform / markov / unified-topk);
* ``experiment`` — run one of the paper's experiments (table4, table5,
  figure2 ... figure6) at a chosen scale and print the resulting table;
* ``batch``      — run one or several experiments through the parallel
  execution engine (``--backend``, ``--workers``) with a persistent result
  cache (``--cache-dir``, ``--no-cache``) so re-runs are incremental;
* ``cache``      — inspect (``stats``) or invalidate (``clear``) the
  persistent result cache;
* ``scenarios``  — list / describe the registered workload scenarios, or
  run a (scenario × algorithm) matrix through the engine and write
  ``workloads_report.json`` (exits non-zero when any run fails or a
  scenario violates its expected shape);
* ``portfolio``  — aggregate a dataset under a wall-clock budget by racing
  the guidance-chosen algorithm portfolio (anytime local search included);
* ``serve``      — drive a seeded load schedule in process through the
  caching/coalescing service frontend and print its statistics;
* ``serve-http`` — run the async HTTP serving layer (sharded workers,
  consistent-hash routing, backpressure, live sessions) on a TCP port or
  unix socket until SIGTERM/SIGINT or ``--max-requests``, then drain
  gracefully;
* ``load-http``  — drive a seeded closed- or open-loop request schedule
  against a running ``serve-http`` server and print latency percentiles
  (exits non-zero when any request failed);
* ``churn``      — replay a write-heavy mutation stream through a live
  aggregation session (delta-maintained pairwise weights, warm-started
  consensus repairs, cache invalidation) and print its statistics;
* ``recovery-churn`` — SIGKILL a journaled churn worker at seeded points
  mid-stream, replay the write-ahead journal after each death and verify
  no acknowledged write is lost and the recovered weights are
  byte-identical to a from-scratch rebuild (exits non-zero otherwise);
* ``telemetry``  — summarize (``summary``, ``top``) or convert
  (``export``) a saved telemetry bundle (see :mod:`repro.telemetry`);
* ``catalogue``  — print the Table 1 algorithm catalogue.

The execution commands (``batch``, ``scenarios run``, ``portfolio``,
``serve``, ``churn``) accept ``--trace-out FILE`` (write a Chrome ``trace_event``
JSON of the run, loadable in Perfetto / ``chrome://tracing``) and
``--telemetry-out FILE`` (write the raw telemetry bundle for the
``telemetry`` command); either flag activates instrumentation for the
run, which is otherwise disabled and free.

Examples
--------

.. code-block:: console

    $ repro-rankagg generate uniform -m 5 -n 8 -o dataset.txt
    $ repro-rankagg aggregate dataset.txt --algorithm BioConsert
    $ repro-rankagg portfolio dataset.txt --budget 0.5
    $ repro-rankagg serve --requests 50 --budget 0.25 --cache-dir .repro-cache
    $ repro-rankagg experiment table5 --scale smoke
    $ repro-rankagg batch table4 table5 figure6 --scale default \
          --backend process --workers 4 --cache-dir .repro-cache
    $ repro-rankagg cache stats --cache-dir .repro-cache
    $ repro-rankagg scenarios list
    $ repro-rankagg scenarios run --matrix smoke --backend process \
          --output workloads_report.json --trace-out trace.json
    $ repro-rankagg telemetry summary bundle.json
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from collections.abc import Sequence

from . import __version__, aggregate as aggregate_rankings
from .algorithms import available_algorithms, table1_catalogue
from .datasets import load_dataset, normalize, save_dataset
from .evaluation import Priority, recommend
from .experiments import (
    format_figure2,
    format_figure3,
    format_figure4,
    format_figure5,
    format_figure6,
    format_table,
    format_table4,
    format_table5,
    run_figure2,
    run_figure3,
    run_figure4,
    run_figure5,
    run_figure6,
    run_table4,
    run_table5,
)
from .generators import markov_dataset, unified_topk_dataset, uniform_dataset

__all__ = ["main", "build_parser"]

_EXPERIMENT_NAMES = (
    "table4",
    "table5",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
)
_DEFAULT_CACHE_DIR = ".repro-cache"


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro-rankagg`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro-rankagg",
        description="Rank aggregation with ties (VLDB 2015 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    agg = subparsers.add_parser("aggregate", help="aggregate a dataset file")
    agg.add_argument("dataset", help="path to a dataset text file")
    agg.add_argument(
        "--algorithm",
        default="BioConsert",
        choices=available_algorithms(),
        help="aggregation algorithm (default: BioConsert)",
    )
    agg.add_argument("--seed", type=int, default=None, help="seed for randomized algorithms")
    agg.add_argument(
        "--normalize",
        choices=["projection", "unification", "unified-broken"],
        default=None,
        help="normalization applied before aggregating an incomplete dataset",
    )

    desc = subparsers.add_parser("describe", help="print dataset features")
    desc.add_argument("dataset", help="path to a dataset text file")

    reco = subparsers.add_parser("recommend", help="recommend an algorithm for a dataset")
    reco.add_argument("dataset", help="path to a dataset text file")
    reco.add_argument(
        "--priority",
        choices=[priority.value for priority in Priority],
        default=Priority.BALANCED.value,
    )

    gen = subparsers.add_parser("generate", help="generate a synthetic dataset")
    gen.add_argument("kind", choices=["uniform", "markov", "unified-topk"])
    gen.add_argument("-m", "--rankings", type=int, default=7)
    gen.add_argument("-n", "--elements", type=int, default=20)
    gen.add_argument("-t", "--steps", type=int, default=1000, help="Markov steps")
    gen.add_argument("-k", "--top-k", type=int, default=10, help="top-k cut (unified-topk)")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("-o", "--output", default=None, help="output file (default: stdout)")

    exp = subparsers.add_parser("experiment", help="run one of the paper's experiments")
    exp.add_argument("name", choices=list(_EXPERIMENT_NAMES))
    exp.add_argument("--scale", default="smoke", choices=["smoke", "default", "paper"])
    exp.add_argument("--seed", type=int, default=2015)

    batch = subparsers.add_parser(
        "batch",
        help="run experiments through the parallel execution engine "
        "with a persistent result cache",
    )
    batch.add_argument(
        "experiments",
        nargs="+",
        choices=list(_EXPERIMENT_NAMES),
        help="experiments to run (several may be given)",
    )
    batch.add_argument("--scale", default="smoke", choices=["smoke", "default", "paper"])
    batch.add_argument("--seed", type=int, default=2015)
    batch.add_argument(
        "--backend",
        choices=["serial", "thread", "process"],
        default="serial",
        help="execution backend fanning out the independent runs",
    )
    batch.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for the thread/process backends (default: CPU count)",
    )
    batch.add_argument(
        "--cache-dir",
        default=_DEFAULT_CACHE_DIR,
        help=f"persistent result cache directory (default: {_DEFAULT_CACHE_DIR})",
    )
    batch.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache for this run",
    )
    _add_telemetry_flags(batch)

    cache = subparsers.add_parser(
        "cache", help="inspect or invalidate the persistent result cache"
    )
    cache.add_argument("action", choices=["stats", "clear"])
    cache.add_argument(
        "--cache-dir",
        default=_DEFAULT_CACHE_DIR,
        help=f"persistent result cache directory (default: {_DEFAULT_CACHE_DIR})",
    )
    cache.add_argument(
        "--algorithm",
        default=None,
        help="restrict `clear` to the entries of one algorithm",
    )

    scenarios = subparsers.add_parser(
        "scenarios", help="list, describe or run the registered workload scenarios"
    )
    scenarios_sub = scenarios.add_subparsers(dest="scenarios_command", required=True)

    scenarios_sub.add_parser("list", help="print the scenario catalog")

    sc_describe = scenarios_sub.add_parser(
        "describe", help="print one scenario's full registry card"
    )
    sc_describe.add_argument("name", help="scenario name (see `scenarios list`)")

    sc_run = scenarios_sub.add_parser(
        "run", help="run a (scenario × algorithm) matrix through the engine"
    )
    sc_run.add_argument(
        "--matrix",
        default="smoke",
        choices=["smoke", "default"],
        help="scenario scale preset (default: smoke)",
    )
    sc_run.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict to one scenario (repeatable; default: all registered)",
    )
    sc_run.add_argument(
        "--algorithms",
        nargs="+",
        default=None,
        metavar="NAME",
        help="algorithm names (default: the fast scalable matrix suite)",
    )
    sc_run.add_argument("--seed", type=int, default=2015)
    sc_run.add_argument(
        "--shard-size",
        type=int,
        default=2,
        help="datasets per engine job (shard-level batching; default: 2)",
    )
    sc_run.add_argument(
        "--backend", choices=["serial", "thread", "process"], default="serial"
    )
    sc_run.add_argument("--workers", type=int, default=None)
    sc_run.add_argument(
        "--cache-dir",
        default=_DEFAULT_CACHE_DIR,
        help=f"persistent result cache directory (default: {_DEFAULT_CACHE_DIR})",
    )
    sc_run.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache for this run",
    )
    sc_run.add_argument(
        "--output",
        default="workloads_report.json",
        help="machine-readable report path (default: workloads_report.json)",
    )
    _add_telemetry_flags(sc_run)

    portfolio = subparsers.add_parser(
        "portfolio",
        help="aggregate a dataset under a time budget by racing the "
        "guidance-chosen algorithm portfolio",
    )
    portfolio.add_argument("dataset", help="path to a dataset text file")
    portfolio.add_argument(
        "--budget",
        type=float,
        default=1.0,
        help="shared wall-clock budget in seconds (default: 1.0)",
    )
    portfolio.add_argument(
        "--priority",
        choices=[priority.value for priority in Priority],
        default=Priority.BALANCED.value,
        help="guidance priority steering candidate selection",
    )
    portfolio.add_argument(
        "--algorithms",
        nargs="+",
        default=None,
        metavar="NAME",
        help="explicit candidate algorithms (default: guidance engine)",
    )
    portfolio.add_argument("--seed", type=int, default=None)
    _add_telemetry_flags(portfolio)

    serve = subparsers.add_parser(
        "serve",
        help="drive a seeded load schedule in process through the "
        "caching/coalescing service frontend",
    )
    serve.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="scenario(s) providing the request population (repeatable; "
        "default: mallows-ties-diffuse + markov-similarity)",
    )
    serve.add_argument(
        "--scale",
        default="smoke",
        choices=["smoke", "default"],
        help="scenario scale preset (default: smoke)",
    )
    serve.add_argument(
        "--requests", type=int, default=50, help="stream length (default: 50)"
    )
    serve.add_argument(
        "--budget",
        type=float,
        default=0.25,
        help="per-request time budget in seconds (default: 0.25)",
    )
    serve.add_argument(
        "--skew",
        type=float,
        default=1.1,
        help="Zipf popularity exponent over the distinct datasets (default: 1.1)",
    )
    serve.add_argument(
        "--batch-size",
        type=int,
        default=8,
        help="requests coalesced per batch (default: 8)",
    )
    serve.add_argument(
        "--priority",
        choices=[priority.value for priority in Priority],
        default=Priority.BALANCED.value,
    )
    serve.add_argument("--seed", type=int, default=2015)
    serve.add_argument(
        "--cache-dir",
        default=_DEFAULT_CACHE_DIR,
        help=f"persistent result cache directory (default: {_DEFAULT_CACHE_DIR})",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache (every request is computed)",
    )
    serve.add_argument(
        "--output",
        default=None,
        help="also write the machine-readable load report to this JSON file",
    )
    _add_telemetry_flags(serve)

    serve_http = subparsers.add_parser(
        "serve-http",
        help="run the async HTTP serving layer (sharded workers, "
        "consistent-hash routing, backpressure, graceful drain)",
    )
    serve_http.add_argument(
        "--host", default="127.0.0.1", help="TCP bind address (default: 127.0.0.1)"
    )
    serve_http.add_argument(
        "--port",
        type=int,
        default=8572,
        help="TCP port; 0 binds an ephemeral port (default: 8572)",
    )
    serve_http.add_argument(
        "--unix-socket",
        default=None,
        metavar="PATH",
        help="bind a unix domain socket at PATH instead of TCP",
    )
    serve_http.add_argument(
        "--shards", type=int, default=2, help="shard worker count (default: 2)"
    )
    serve_http.add_argument(
        "--mode",
        choices=["thread", "process"],
        default="thread",
        help="shard execution mode (default: thread; process gives real "
        "CPU parallelism across shards)",
    )
    serve_http.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="per-shard admission bound before structured 'overloaded' "
        "rejections (default: 64)",
    )
    serve_http.add_argument(
        "--budget",
        type=float,
        default=0.25,
        help="default per-request compute budget in seconds (default: 0.25)",
    )
    serve_http.add_argument("--seed", type=int, default=2015)
    serve_http.add_argument(
        "--cache-dir",
        default=_DEFAULT_CACHE_DIR,
        help=f"shared disk cache tier (default: {_DEFAULT_CACHE_DIR})",
    )
    serve_http.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache (thread mode only)",
    )
    serve_http.add_argument(
        "--memory-entries",
        type=int,
        default=256,
        help="per-shard memory cache tier capacity (default: 256)",
    )
    serve_http.add_argument(
        "--port-file",
        default=None,
        metavar="PATH",
        help="write the bound port to PATH once listening (lets scripts "
        "use --port 0 without racing)",
    )
    serve_http.add_argument(
        "--max-requests",
        type=int,
        default=None,
        metavar="N",
        help="drain and exit after answering N requests (deterministic "
        "shutdown for CI smoke runs)",
    )
    serve_http.add_argument(
        "--journal-dir",
        default=None,
        metavar="DIR",
        help="journal every live session under DIR (one write-ahead log "
        "per session) and recover the sessions found there on startup",
    )
    serve_http.add_argument(
        "--journal-fsync",
        choices=["always", "batch", "never"],
        default="batch",
        help="journal durability policy (default: batch)",
    )
    serve_http.add_argument(
        "--health-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="probe shard workers this often and eject dead ones "
        "(default: only on-demand failover)",
    )
    _add_telemetry_flags(serve_http)

    load_http = subparsers.add_parser(
        "load-http",
        help="drive a seeded load schedule against a running serve-http "
        "server and print latency percentiles",
    )
    load_http.add_argument(
        "--host", default="127.0.0.1", help="server address (default: 127.0.0.1)"
    )
    load_http.add_argument("--port", type=int, default=8572)
    load_http.add_argument(
        "--unix-socket",
        default=None,
        metavar="PATH",
        help="connect over a unix domain socket instead of TCP",
    )
    load_http.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="scenario(s) providing the request population (repeatable)",
    )
    load_http.add_argument(
        "--scale", default="smoke", choices=["smoke", "default"]
    )
    load_http.add_argument(
        "--requests", type=int, default=50, help="schedule length (default: 50)"
    )
    load_http.add_argument("--skew", type=float, default=1.1)
    load_http.add_argument(
        "--budget", type=float, default=0.25, help="per-request budget (s)"
    )
    load_http.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-request total-latency deadline in seconds",
    )
    load_http.add_argument(
        "--algorithm", default=None, help="pin one registry algorithm"
    )
    load_http.add_argument(
        "--loop",
        choices=["closed", "open"],
        default="closed",
        help="closed (concurrency-limited) or open (rate-limited) loop",
    )
    load_http.add_argument(
        "--concurrency", type=int, default=4, help="closed-loop workers"
    )
    load_http.add_argument(
        "--rate", type=float, default=50.0, help="open-loop arrival rate (req/s)"
    )
    load_http.add_argument("--seed", type=int, default=2015)
    load_http.add_argument(
        "--output",
        default=None,
        help="also write the machine-readable load report to this JSON file",
    )

    churn = subparsers.add_parser(
        "churn",
        help="replay a write-heavy mutation stream through a live "
        "aggregation session (delta-maintained weights, warm repairs)",
    )
    churn.add_argument(
        "--scenario",
        default="mallows-ties-diffuse",
        metavar="NAME",
        help="scenario whose first dataset seeds the live population "
        "(default: mallows-ties-diffuse)",
    )
    churn.add_argument(
        "--scale",
        default="smoke",
        choices=["smoke", "default"],
        help="scenario scale preset (default: smoke)",
    )
    churn.add_argument(
        "--mutations", type=int, default=30, help="write-stream length (default: 30)"
    )
    churn.add_argument(
        "--repair-every",
        type=int,
        default=1,
        help="writes between consensus repairs (default: 1)",
    )
    churn.add_argument(
        "--algorithm",
        default="BioConsert",
        help="anytime algorithm running the repairs (default: BioConsert)",
    )
    churn.add_argument(
        "--budget",
        type=float,
        default=0.25,
        help="per-repair time budget in seconds (default: 0.25)",
    )
    churn.add_argument("--seed", type=int, default=2015)
    churn.add_argument(
        "--cache-dir",
        default=_DEFAULT_CACHE_DIR,
        help=f"persistent result cache directory (default: {_DEFAULT_CACHE_DIR})",
    )
    churn.add_argument(
        "--no-cache",
        action="store_true",
        help="run without a serving frontend (no invalidate/re-publish)",
    )
    churn.add_argument(
        "--output",
        default=None,
        help="also write the machine-readable churn report to this JSON file",
    )
    _add_telemetry_flags(churn)

    recovery = subparsers.add_parser(
        "recovery-churn",
        help="SIGKILL a journaled churn worker mid-stream and verify no "
        "acknowledged write is lost on replay (crash-safety smoke)",
    )
    recovery.add_argument(
        "--scenario",
        default="mallows-ties-diffuse",
        metavar="NAME",
        help="scenario whose first dataset seeds the live population "
        "(default: mallows-ties-diffuse)",
    )
    recovery.add_argument(
        "--scale",
        default="smoke",
        choices=["smoke", "default"],
        help="scenario scale preset (default: smoke)",
    )
    recovery.add_argument(
        "--mutations", type=int, default=40, help="write-stream length (default: 40)"
    )
    recovery.add_argument(
        "--kill-at",
        type=int,
        nargs="*",
        default=[12, 27],
        metavar="N",
        help="acknowledged-write counts at which the worker is SIGKILLed "
        "(default: 12 27)",
    )
    recovery.add_argument(
        "--repair-every",
        type=int,
        default=8,
        help="acknowledged writes between consensus repairs (default: 8)",
    )
    recovery.add_argument(
        "--fsync",
        choices=["always", "batch", "never"],
        default="batch",
        help="journal durability policy (default: batch)",
    )
    recovery.add_argument(
        "--algorithm",
        default="BioConsert",
        help="anytime algorithm running the repairs (default: BioConsert)",
    )
    recovery.add_argument(
        "--budget",
        type=float,
        default=0.1,
        help="per-repair time budget in seconds (default: 0.1)",
    )
    recovery.add_argument("--seed", type=int, default=2015)
    recovery.add_argument(
        "--journal-dir",
        default=None,
        metavar="DIR",
        help="journal location (default: a fresh temporary directory)",
    )
    recovery.add_argument(
        "--output",
        default=None,
        help="also write the machine-readable recovery report to this JSON file",
    )
    _add_telemetry_flags(recovery)

    telemetry = subparsers.add_parser(
        "telemetry",
        help="summarize or convert a telemetry bundle saved with --telemetry-out",
    )
    telemetry_sub = telemetry.add_subparsers(dest="telemetry_command", required=True)

    t_summary = telemetry_sub.add_parser(
        "summary", help="print span totals, metric counts and convergence headlines"
    )
    t_summary.add_argument("bundle", help="path to a telemetry bundle JSON file")

    t_export = telemetry_sub.add_parser(
        "export", help="convert a bundle to chrome / jsonl / prometheus text"
    )
    t_export.add_argument("bundle", help="path to a telemetry bundle JSON file")
    t_export.add_argument(
        "--format",
        choices=["chrome", "jsonl", "prometheus"],
        default="chrome",
        help="output format (default: chrome, loadable in Perfetto)",
    )
    t_export.add_argument(
        "-o", "--output", default=None, help="output file (default: stdout)"
    )

    t_top = telemetry_sub.add_parser(
        "top", help="print the span names with the largest total time"
    )
    t_top.add_argument("bundle", help="path to a telemetry bundle JSON file")
    t_top.add_argument(
        "--limit", type=int, default=10, help="rows to print (default: 10)"
    )

    subparsers.add_parser("catalogue", help="print the Table 1 algorithm catalogue")

    return parser


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--trace-out`` / ``--telemetry-out`` flags.

    Parameters
    ----------
    parser:
        The execution subcommand's parser.
    """
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="record telemetry and write a Chrome trace_event JSON on exit "
        "(open in Perfetto or chrome://tracing)",
    )
    parser.add_argument(
        "--telemetry-out",
        default=None,
        metavar="FILE",
        help="record telemetry and write the raw bundle on exit "
        "(inspect with `repro-rankagg telemetry`)",
    )


@contextlib.contextmanager
def _telemetry_capture(args: argparse.Namespace):
    """Record a command under a telemetry session when either flag was given.

    Writes the requested artifacts when the command body finishes —
    including on error, so a failing run still leaves its trace behind.

    Parameters
    ----------
    args:
        The parsed command arguments (``trace_out`` / ``telemetry_out``).
    """
    trace_out = getattr(args, "trace_out", None)
    bundle_out = getattr(args, "telemetry_out", None)
    if not trace_out and not bundle_out:
        yield
        return

    import json

    from .telemetry import session as telemetry_session
    from .telemetry.export import save_bundle, to_chrome_trace

    with telemetry_session() as active:
        try:
            yield
        finally:
            bundle = active.to_payload()
            if bundle_out:
                path = save_bundle(bundle, bundle_out)
                print(f"wrote telemetry bundle to {path}")
            if trace_out:
                from pathlib import Path

                path = Path(trace_out)
                path.write_text(
                    json.dumps(to_chrome_trace(bundle)) + "\n", encoding="utf-8"
                )
                print(f"wrote Chrome trace to {path}")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "aggregate":
        dataset = load_dataset(args.dataset)
        if args.normalize:
            dataset = normalize(dataset, args.normalize)
        elif not dataset.is_complete:
            print(
                "dataset is not complete; applying unification "
                "(use --normalize to choose)",
                file=sys.stderr,
            )
            dataset = normalize(dataset, "unification")
        result = aggregate_rankings(dataset, algorithm=args.algorithm, seed=args.seed)
        print(f"algorithm: {result.algorithm}")
        print(f"score:     {result.score}")
        print(f"time:      {result.elapsed_seconds:.4f}s")
        print("consensus:")
        for index, bucket in enumerate(result.consensus.buckets, start=1):
            print(f"  {index}. " + ", ".join(str(element) for element in bucket))
        return 0

    if args.command == "describe":
        dataset = load_dataset(args.dataset)
        for key, value in dataset.describe().items():
            print(f"{key}: {value}")
        return 0

    if args.command == "recommend":
        dataset = load_dataset(args.dataset)
        if not dataset.is_complete:
            dataset = normalize(dataset, "unification")
        for entry in recommend(dataset, args.priority):
            print(f"{entry.algorithm}: {entry.reason}")
        return 0

    if args.command == "generate":
        if args.kind == "uniform":
            dataset = uniform_dataset(args.rankings, args.elements, args.seed)
        elif args.kind == "markov":
            dataset = markov_dataset(args.rankings, args.elements, args.steps, args.seed)
        else:
            dataset = unified_topk_dataset(
                args.rankings, args.elements, args.top_k, args.steps, args.seed
            )
        if args.output:
            path = save_dataset(dataset, args.output)
            print(f"wrote {dataset.num_rankings} rankings to {path}")
        else:
            from .datasets import dumps

            sys.stdout.write(dumps(dataset))
        return 0

    if args.command == "experiment":
        print(_run_experiment(args.name, args.scale, args.seed))
        return 0

    if args.command == "batch":
        with _telemetry_capture(args):
            return _run_batch(args)

    if args.command == "cache":
        return _run_cache(args)

    if args.command == "scenarios":
        with _telemetry_capture(args):
            return _run_scenarios(args)

    if args.command == "portfolio":
        with _telemetry_capture(args):
            return _run_portfolio(args)

    if args.command == "serve":
        with _telemetry_capture(args):
            return _run_serve(args)

    if args.command == "serve-http":
        with _telemetry_capture(args):
            return _run_serve_http(args)

    if args.command == "load-http":
        return _run_load_http(args)

    if args.command == "churn":
        with _telemetry_capture(args):
            return _run_churn(args)

    if args.command == "recovery-churn":
        with _telemetry_capture(args):
            return _run_recovery_churn(args)

    if args.command == "telemetry":
        return _run_telemetry(args)

    if args.command == "catalogue":
        rows = table1_catalogue()
        columns = [
            ("reference", "Ref"),
            ("name", "Name"),
            ("approximation", "Approx."),
            ("family", "Family"),
            ("produces_ties", "Produces ties"),
            ("accounts_for_tie_cost", "Untying cost"),
        ]
        print(format_table(rows, columns, title="Table 1 — algorithm catalogue"))
        return 0

    parser.error(f"unknown command {args.command!r}")
    return 2


def _run_experiment(name: str, scale: str, seed: int, engine=None) -> str:
    if name == "table4":
        return format_table4(run_table4(scale, seed=seed, engine=engine))
    if name == "table5":
        return format_table5(run_table5(scale, seed=seed, engine=engine))
    if name == "figure2":
        return format_figure2(run_figure2(scale, seed=seed, engine=engine))
    if name == "figure3":
        # Pure dataset-statistics sweep: nothing to aggregate, cache or fan out.
        return format_figure3(run_figure3(scale, seed=seed))
    if name == "figure4":
        return format_figure4(run_figure4(scale, seed=seed, engine=engine)[0])
    if name == "figure5":
        return format_figure5(run_figure5(scale, seed=seed, engine=engine)[0])
    if name == "figure6":
        return format_figure6(run_figure6(scale, seed=seed, engine=engine)[0])
    raise ValueError(f"unknown experiment {name!r}")


def _run_batch(args: argparse.Namespace) -> int:
    """Run experiments through the execution engine and print a summary.

    Exit codes mirror the ``scenarios run`` convention: 0 for a clean
    batch, 3 when specs were quarantined (retries exhausted) and 4 when
    specs were marked poison (consecutive worker crashes) — the batch
    still completes and reports structured errors either way.
    """
    from .engine import ExecutionEngine, ResultCache, make_backend

    backend = make_backend(args.backend, workers=args.workers)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    engine = ExecutionEngine(backend=backend, cache=cache)
    try:
        for name in args.experiments:
            print(_run_experiment(name, args.scale, args.seed, engine=engine))
            print()
    finally:
        _shutdown_backend(backend)
    summary = engine.execution_summary()
    fanout = engine.session_fanout
    print("engine summary:")
    print(f"  backend:     {summary['backend']}")
    print(f"  total runs:  {summary['total_runs']}")
    print(f"  executed:    {summary['executed_runs']}")
    print(f"  from cache:  {summary['cached_runs']}")
    print(f"  hit rate:    {100.0 * summary['cache_hit_rate']:.1f}%")
    if cache is not None:
        stats = cache.stats()
        print(f"  cache dir:   {stats.directory}")
        print(f"  cache size:  {stats.entries} entries, {stats.size_bytes} bytes")
        if stats.corrupt:
            print(f"  quarantined: {stats.corrupt} corrupt cache record(s)")
    if (
        fanout.retries
        or fanout.worker_crashes
        or fanout.pool_rebuilds
        or fanout.deadline_hits
    ):
        print(
            f"  resilience:  {fanout.retries} retries, "
            f"{fanout.worker_crashes} worker crashes, "
            f"{fanout.pool_rebuilds} pool rebuilds, "
            f"{fanout.deadline_hits} deadline hits"
        )
    if fanout.poisoned:
        print(
            f"batch degraded: {fanout.poisoned} poison spec(s), "
            f"{fanout.quarantined} quarantined spec(s) "
            "(see error records in the reports above)",
            file=sys.stderr,
        )
        return 4
    if fanout.quarantined:
        print(
            f"batch degraded: {fanout.quarantined} quarantined spec(s) "
            "(see error records in the reports above)",
            file=sys.stderr,
        )
        return 3
    return 0


def _shutdown_backend(backend) -> None:
    """Release pooled workers before interpreter exit.

    Leaving a live ProcessPoolExecutor to the atexit machinery races the
    interpreter shutdown and spews "Exception ignored" noise on stderr.
    """
    shutdown = getattr(backend, "shutdown", None)
    if shutdown is not None:
        shutdown()


def _run_scenarios(args: argparse.Namespace) -> int:
    """List / describe the scenario catalog or run a scenario matrix."""
    from .experiments.report import format_table
    from .workloads import (
        DEFAULT_MATRIX_ALGORITHMS,
        ScenarioMatrix,
        get_scenario,
        list_scenarios,
    )

    if args.scenarios_command == "list":
        rows = [scenario.describe() for scenario in list_scenarios()]
        for row in rows:
            row["tags"] = ", ".join(row["tags"]) or "—"
        columns = [
            ("name", "Name"),
            ("family", "Family"),
            ("normalization", "Normalization"),
            ("seed_policy", "Seed policy"),
            ("paper_section", "Paper section"),
            ("tags", "Tags"),
        ]
        print(format_table(rows, columns, title="Registered workload scenarios"))
        return 0

    if args.scenarios_command == "describe":
        try:
            scenario = get_scenario(args.name)
        except ValueError as error:
            print(error, file=sys.stderr)
            return 1
        card = scenario.describe()
        card["description"] = scenario.description
        for key, value in card.items():
            print(f"{key}: {value}")
        return 0

    # scenarios run
    from .engine import ExecutionEngine, ResultCache, make_backend
    from .workloads import ScenarioShapeError

    backend = make_backend(args.backend, workers=args.workers)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    engine = ExecutionEngine(backend=backend, cache=cache)
    try:
        matrix = ScenarioMatrix(
            scenarios=args.scenario,
            algorithms=tuple(args.algorithms) if args.algorithms else DEFAULT_MATRIX_ALGORITHMS,
            scale=args.matrix,
            seed=args.seed,
            shard_size=args.shard_size,
        )
        report = matrix.run(engine)
    except ScenarioShapeError as error:
        print(f"scenario validation failed: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(error, file=sys.stderr)
        return 1
    finally:
        _shutdown_backend(backend)
    print(report.format())
    path = report.write(args.output)
    print(f"\nwrote machine-readable report to {path}")
    summary = engine.execution_summary()
    print(
        f"engine: backend={summary['backend']} total={summary['total_runs']} "
        f"executed={summary['executed_runs']} cached={summary['cached_runs']}"
    )
    # A run that produced no score (library error, over-budget verdict) must
    # not hide inside the report: fail the command so CI and scripts notice.
    failures = report.failed_runs()
    if failures:
        print(f"\n{len(failures)} run(s) failed:", file=sys.stderr)
        for failure in failures:
            reason = failure["error"] or (
                "over budget" if not failure["within_budget"] else "no score"
            )
            print(
                f"  {failure['scenario']}: {failure['algorithm']} on "
                f"{failure['dataset']}: {reason}",
                file=sys.stderr,
            )
        return 3
    return 0


def _run_portfolio(args: argparse.Namespace) -> int:
    """Race the algorithm portfolio on one dataset under a time budget."""
    from .service import PortfolioScheduler

    dataset = load_dataset(args.dataset)
    if not dataset.is_complete:
        print(
            "dataset is not complete; applying unification before serving",
            file=sys.stderr,
        )
        dataset = normalize(dataset, "unification")
    scheduler = PortfolioScheduler(
        budget_seconds=args.budget,
        priority=args.priority,
        algorithms=args.algorithms,
        seed=args.seed,
    )
    result = scheduler.run(dataset)
    print(f"winner:  {result.algorithm}")
    print(f"score:   {result.score}")
    print(f"budget:  {result.budget_seconds:.3f}s")
    print(f"elapsed: {result.elapsed_seconds:.3f}s")
    print("members:")
    for member in result.members:
        detail = f" ({member.reason})" if member.reason else ""
        score = "—" if member.score is None else str(member.score)
        print(
            f"  {member.algorithm:<18} {member.mode:<9} {member.status:<12} "
            f"score={score:<8} steps={member.steps}{detail}"
        )
    print("consensus:")
    for index, bucket in enumerate(result.consensus.buckets, start=1):
        print(f"  {index}. " + ", ".join(str(element) for element in bucket))
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """Replay a load schedule through the frontend in process and print stats."""
    import json

    from .service import ServiceFrontend
    from .workloads import HttpLoadProfile, build_http_schedule, run_inprocess_load

    profile = HttpLoadProfile(
        scenarios=tuple(args.scenario or HttpLoadProfile.scenarios),
        scale=args.scale,
        num_requests=args.requests,
        skew=args.skew,
        priority=args.priority,
        budget_seconds=args.budget,
        concurrency=args.batch_size,
        seed=args.seed,
    )
    frontend = ServiceFrontend(
        None if args.no_cache else args.cache_dir,
        default_budget_seconds=args.budget,
        seed=args.seed,
    )
    payload = run_inprocess_load(build_http_schedule(profile), frontend)
    stats = payload["frontend"]
    print(
        f"service load — scenarios={', '.join(profile.scenarios)} "
        f"scale={profile.scale} requests={profile.num_requests} "
        f"budget={profile.budget_seconds}s"
    )
    print(f"  distinct datasets: {payload['distinct_datasets']}")
    print(f"  by source:         {payload['by_source']}")
    print(f"  hit rate:          {100.0 * stats['hit_rate']:.1f}%")
    print(f"  latency mean:      {1000.0 * stats['latency_mean_seconds']:.2f}ms")
    print(f"  latency p95:       {1000.0 * stats['latency_p95_seconds']:.2f}ms")
    if args.output:
        from pathlib import Path

        path = Path(args.output)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote machine-readable load report to {path}")
    return 0


def _run_serve_http(args: argparse.Namespace) -> int:
    """Run the async HTTP serving layer until a signal or max-requests."""
    import asyncio
    import signal
    from pathlib import Path

    from .service.http import HttpAggregationServer

    async def _serve() -> dict:
        server = HttpAggregationServer(
            None if args.no_cache else args.cache_dir,
            host=args.host,
            port=args.port,
            unix_socket=args.unix_socket,
            shards=args.shards,
            mode=args.mode,
            max_pending=args.max_pending,
            default_budget_seconds=args.budget,
            seed=args.seed,
            memory_entries=args.memory_entries,
            max_requests=args.max_requests,
            journal_dir=args.journal_dir,
            journal_fsync=args.journal_fsync,
            health_interval_seconds=args.health_interval,
        )
        await server.start()
        bind = args.unix_socket or f"http://{server.host}:{server.port}"
        print(
            f"serving on {bind} — shards={args.shards} mode={args.mode} "
            f"max_pending={args.max_pending} budget={args.budget}s",
            flush=True,
        )
        if server.recovered_sessions:
            print(
                f"recovered live sessions: {', '.join(server.recovered_sessions)}",
                flush=True,
            )
        if args.port_file and args.unix_socket is None:
            Path(args.port_file).write_text(f"{server.port}\n")
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # non-unix event loops
                pass
        drained = asyncio.create_task(server.wait_drained())
        stopped = asyncio.create_task(stop.wait())
        done, _pending = await asyncio.wait(
            {drained, stopped}, return_when=asyncio.FIRST_COMPLETED
        )
        if stopped in done:
            print("signal received — draining", flush=True)
            await server.drain()
        await drained
        stopped.cancel()
        if args.port_file:
            Path(args.port_file).unlink(missing_ok=True)
        return server.stats.describe()

    stats = asyncio.run(_serve())
    service = stats["service"]
    ok = sum(
        service[source]
        for source in ("computed", "memory_hits", "disk_hits", "coalesced")
    )
    print(
        f"drained — requests={stats['requests']} ok={ok} "
        f"rejected={service['rejected']} deadline={service['deadline_misses']} "
        f"failed={service['failed']} coalesced={service['coalesced']}"
    )
    return 0


def _run_load_http(args: argparse.Namespace) -> int:
    """Drive a seeded schedule against a running server; non-zero on failures."""
    import asyncio
    import json

    from .workloads import HttpLoadProfile, build_http_schedule, drive_http_load

    profile = HttpLoadProfile(
        scenarios=tuple(args.scenario or HttpLoadProfile.scenarios),
        scale=args.scale,
        num_requests=args.requests,
        skew=args.skew,
        budget_seconds=args.budget,
        deadline_seconds=args.deadline,
        algorithm=args.algorithm,
        loop=args.loop,
        concurrency=args.concurrency,
        rate=args.rate,
        seed=args.seed,
    )
    report = asyncio.run(
        drive_http_load(
            build_http_schedule(profile),
            host=args.host,
            port=args.port,
            unix_socket=args.unix_socket,
        )
    )
    latency = report["latency_seconds"]
    print(
        f"http load — {report['transport']} loop={profile.loop} "
        f"requests={report['num_requests']} completed={report['completed']}"
    )
    print(f"  by status:   {report['by_status']}")
    print(f"  by source:   {report['by_source']}")
    print(
        f"  latency:     p50={1000.0 * latency['p50']:.2f}ms "
        f"p99={1000.0 * latency['p99']:.2f}ms "
        f"p999={1000.0 * latency['p999']:.2f}ms"
    )
    print(f"  throughput:  {report['throughput_rps']:.1f} req/s")
    print(f"  results fp:  {report['results_fingerprint'][:16]}")
    if args.output:
        from pathlib import Path

        path = Path(args.output)
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote machine-readable load report to {path}")
    return 1 if report["failed"] else 0


def _run_churn(args: argparse.Namespace) -> int:
    """Replay a write-heavy mutation stream through a live session."""
    import json

    from .service import ServiceFrontend
    from .workloads import ChurnProfile, run_churn_load

    profile = ChurnProfile(
        scenario=args.scenario,
        scale=args.scale,
        num_mutations=args.mutations,
        repair_every=args.repair_every,
        algorithm=args.algorithm,
        budget_seconds=args.budget,
        seed=args.seed,
    )
    frontend = (
        None
        if args.no_cache
        else ServiceFrontend(
            args.cache_dir, default_budget_seconds=args.budget, seed=args.seed
        )
    )
    payload = run_churn_load(profile, frontend=frontend)
    print(
        f"churn load — scenario={profile.scenario} scale={profile.scale} "
        f"mutations={profile.num_mutations} algorithm={profile.algorithm}"
    )
    print(
        f"  rankings:        {payload['initial_rankings']} -> "
        f"{payload['final_rankings']} (n={payload['num_elements']})"
    )
    print(f"  delta mean/max:  {1e6 * payload['delta_mean_seconds']:.1f}us / "
          f"{1e6 * payload['delta_max_seconds']:.1f}us per write")
    print(
        f"  repairs:         {payload['repairs']} "
        f"({payload['warm_repairs']} warm-started), "
        f"mean {1000.0 * payload['repair_mean_seconds']:.2f}ms"
    )
    print(f"  score improved:  {payload['score_delta_total']} over the stream "
          f"(final score {payload['final_score']})")
    print(f"  invalidated:     {payload['invalidated']} cached responses")
    print(f"  weights == rebuild: {payload['weights_match_rebuild']}")
    if args.output:
        from pathlib import Path

        path = Path(args.output)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote machine-readable churn report to {path}")
    return 0


def _run_recovery_churn(args: argparse.Namespace) -> int:
    """SIGKILL a journaled churn worker mid-stream; verify replay loses nothing."""
    import json
    import tempfile
    from pathlib import Path

    from .workloads import KillRestartProfile, run_kill_restart_churn

    profile = KillRestartProfile(
        scenario=args.scenario,
        scale=args.scale,
        num_mutations=args.mutations,
        kill_points=tuple(args.kill_at),
        repair_every=args.repair_every,
        fsync=args.fsync,
        algorithm=args.algorithm,
        budget_seconds=args.budget,
        seed=args.seed,
    )
    if args.journal_dir is None:
        with tempfile.TemporaryDirectory(prefix="repro-recovery-") as scratch:
            payload = run_kill_restart_churn(
                profile, journal_dir=Path(scratch) / "wal"
            )
    else:
        payload = run_kill_restart_churn(profile, journal_dir=args.journal_dir)
    print(
        f"kill-restart churn — scenario={profile.scenario} "
        f"scale={profile.scale} mutations={profile.num_mutations} "
        f"kills at {list(profile.kill_points)} fsync={profile.fsync}"
    )
    for index, entry in enumerate(payload["rounds"]):
        fate = "SIGKILL" if entry["killed"] else "completed"
        print(
            f"  round {index}: resumed at {entry['resumed_at']}, "
            f"acked {entry['acked']}, recovered generation "
            f"{entry['recovered_generation']}, "
            f"torn records truncated {entry['truncated_records']} ({fate})"
        )
    print(f"  zero lost acks:     {payload['zero_lost_acks']}")
    print(f"  weights == rebuild: {payload['weights_match_rebuild']}")
    print(f"  fingerprint match:  {payload['fingerprint_match']}")
    if args.output:
        path = Path(args.output)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote machine-readable recovery report to {path}")
    ok = (
        payload["zero_lost_acks"]
        and payload["weights_match_rebuild"]
        and payload["fingerprint_match"]
        and payload["completed"]
    )
    return 0 if ok else 1


def _run_telemetry(args: argparse.Namespace) -> int:
    """Summarize or convert a saved telemetry bundle."""
    from .telemetry.export import (
        load_bundle,
        summarize_bundle,
        to_chrome_trace,
        to_jsonl,
        to_prometheus,
    )

    try:
        bundle = load_bundle(args.bundle)
    except (OSError, ValueError) as error:
        print(f"cannot load telemetry bundle: {error}", file=sys.stderr)
        return 1

    if args.telemetry_command == "export":
        import json

        if args.format == "chrome":
            text = json.dumps(to_chrome_trace(bundle)) + "\n"
        elif args.format == "jsonl":
            text = to_jsonl(bundle)
        else:
            text = to_prometheus(bundle)
        if args.output:
            from pathlib import Path

            path = Path(args.output)
            path.write_text(text, encoding="utf-8")
            print(f"wrote {args.format} export to {path}")
        else:
            sys.stdout.write(text)
        return 0

    summary = summarize_bundle(bundle)
    if args.telemetry_command == "top":
        rows = summary["spans_by_name"][: args.limit]
        print(f"top spans by total time (trace {summary['trace_id']}):")
        for row in rows:
            print(
                f"  {row['name']:<24} count={row['count']:<6} "
                f"total={row['total']:.4f}s mean={row['mean']:.4f}s "
                f"max={row['max']:.4f}s"
            )
        if not rows:
            print("  (no spans recorded)")
        return 0

    # summary
    print(f"trace:               {summary['trace_id']}")
    print(f"spans:               {summary['num_spans']}")
    print(f"metric series:       {summary['num_metrics']}")
    print(f"convergence streams: {summary['num_convergence_streams']}")
    if summary["spans_by_name"]:
        print("spans by name:")
        for row in summary["spans_by_name"]:
            print(
                f"  {row['name']:<24} count={row['count']:<6} "
                f"total={row['total']:.4f}s mean={row['mean']:.4f}s"
            )
    if summary["convergence"]:
        print("convergence:")
        for stream in summary["convergence"]:
            label = stream["algorithm"]
            if stream["dataset"]:
                label += f" @ {stream['dataset']}"
            print(
                f"  {label:<32} events={stream['events']:<6} "
                f"final_score={stream['final_score']}"
            )
    return 0


def _run_cache(args: argparse.Namespace) -> int:
    """Inspect or invalidate the persistent result cache."""
    from pathlib import Path

    from .engine import ResultCache

    if not Path(args.cache_dir).is_dir():
        print(f"cache directory {args.cache_dir!r} does not exist")
        return 1
    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        stats = cache.stats()
        print(f"directory: {stats.directory}")
        print(f"entries: {stats.entries}")
        print(f"size_bytes: {stats.size_bytes}")
        return 0
    removed = cache.invalidate(algorithm=args.algorithm)
    scope = f"algorithm {args.algorithm!r}" if args.algorithm else "all entries"
    print(f"removed {removed} cache record(s) ({scope})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
