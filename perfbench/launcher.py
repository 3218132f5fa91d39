"""Traced launcher: run the program with a span around each layer's entry points.

Usage (the benchmark starts it; the arguments after ``--`` are the exact
command line an untraced run gives ``python``)::

    python perfbench/launcher.py --trace-out FILE -- -m repro.cli serve-http ...
    python perfbench/launcher.py --trace-out FILE -- perfbench/batch_child.py DIR

Each public entry point named in ``perfbench/spec.json`` is wrapped where it
is looked up: methods on their class, module-level functions in every
``repro`` module that imported them.  A span records name, start, end
(CLOCK_MONOTONIC, shared with the benchmark process), parent and request
id.  Parents follow a context variable, so they are right per thread and
per asyncio task; a shard thread's first span is parented, through the
request id, to the ``ShardPool.submit`` span that handed the request over.
Spans stay in memory and are written as JSON lines when the program
returns (``serve-http`` returns after its SIGTERM drain).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import runpy
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

_clock = time.clock_gettime
_MONO = time.CLOCK_MONOTONIC
SPANS: list[tuple] = []  # (id, name, start, end, parent, request_id, attrs)
_ids = itertools.count()
_current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)
_by_request: dict[str, int] = {}


def _parent(request_id):
    parent = _current.get()
    if parent is None and request_id is not None:
        parent = _by_request.get(request_id)
    return parent


def traced(name, function, *, request_id=None, attrs=None, before=None):
    """Wrap a synchronous callable in a span.

    ``request_id(args, kwargs)`` names the request the call serves,
    ``attrs(args, kwargs, result)`` returns attributes recorded on success and
    ``before(args, kwargs)`` runs outside the timed interval, its value passed
    to ``attrs`` as ``kwargs['__before__']``.
    """

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        pre = before(args, kwargs) if before is not None else None
        rid = request_id(args, kwargs) if request_id is not None else None
        parent = _parent(rid)
        sid = next(_ids)
        token = _current.set(sid)
        start = _clock(_MONO)
        result = extra = None
        try:
            result = function(*args, **kwargs)
            return result
        finally:
            end = _clock(_MONO)
            _current.reset(token)
            if attrs is not None:
                extra = attrs(args, dict(kwargs, __before__=pre), result)
            SPANS.append((sid, name, start, end, parent, rid, extra))

    return wrapper


def traced_async(name, function, *, request_id):
    """Wrap a coroutine function; later spans of its request parent to it."""

    @functools.wraps(function)
    async def wrapper(*args, **kwargs):
        rid = request_id(args, kwargs)
        parent = _parent(None)
        sid = next(_ids)
        token = _current.set(sid)
        if rid is not None:
            _by_request[rid] = sid
        start = _clock(_MONO)
        try:
            return await function(*args, **kwargs)
        finally:
            end = _clock(_MONO)
            _current.reset(token)
            if rid is not None and _by_request.get(rid) == sid:
                del _by_request[rid]
            SPANS.append((sid, name, start, end, parent, rid, None))

    return wrapper


def patch_method(cls, attribute, wrapper_factory):
    setattr(cls, attribute, wrapper_factory(getattr(cls, attribute)))


def patch_function(original, wrapper):
    """Replace ``original`` in every loaded ``repro`` module that holds it."""
    for module in list(sys.modules.values()):
        if module is None or not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def _request_of(index):
    def request_id(args, kwargs):
        request = args[index] if len(args) > index else kwargs.get("request")
        return getattr(request, "request_id", None)

    return request_id


def _portfolio_attrs(args, kwargs, result):
    if result is None:
        return None
    statuses: dict[str, int] = {}
    total = kept = 0.0
    for member in result.members:
        statuses[member.status] = statuses.get(member.status, 0) + 1
        total += member.elapsed_seconds
        if member.algorithm == result.algorithm:
            kept += member.elapsed_seconds
    return {"budget": result.budget_seconds, "statuses": statuses,
            "member_seconds": total, "kept_seconds": kept}


def install() -> None:
    """Import the layers and wrap their entry points."""
    import repro.cli  # noqa: F401 — loads every module the CLI reaches
    from repro.algorithms.anytime import AnytimeController
    from repro.algorithms.base import RankAggregator
    from repro.core import journal as journal_module
    from repro.core.journal import LiveJournal
    from repro.core.kemeny import generalized_kemeny_score_from_weights
    from repro.core.live import LiveDataset
    from repro.core.prepared import prepare_rankings
    from repro.datasets.dataset import Dataset
    from repro.datasets.normalization import ensure_complete
    from repro.engine import execution
    from repro.engine.cache import ResultCache
    from repro.engine.engine import ExecutionEngine
    from repro.engine.fingerprint import dataset_fingerprint
    from repro.engine.tiering import TieredResultCache
    from repro.evaluation.guidance import profile_dataset, recommend
    from repro.service.frontend import ServiceFrontend
    from repro.service.http.hashring import ConsistentHashRing
    from repro.service.http.protocol import decode_aggregate_request
    from repro.service.http.worker import ShardPool
    from repro.service.live import LiveAggregationSession
    from repro.service.portfolio import PortfolioScheduler

    functions = [
        (decode_aggregate_request, "datasets.decode"),
        (dataset_fingerprint, "datasets.fingerprint"),
        (ensure_complete, "datasets.normalize"),
        (profile_dataset, "guidance.profile"),
        (recommend, "guidance.recommend"),
        (prepare_rankings, "prepared.build"),
        (generalized_kemeny_score_from_weights, "kemeny.score"),
        (execution.execute_spec, "engine.spec"),
    ]
    for original, name in functions:
        patch_function(original, traced(name, original))

    patch_method(ShardPool, "submit",
                 lambda f: traced_async("http.submit", f, request_id=_request_of(1)))
    patch_method(ConsistentHashRing, "route", lambda f: traced("http.route", f))
    patch_method(Dataset, "content_fingerprint",
                 lambda f: traced("datasets.fingerprint", f))
    patch_method(ServiceFrontend, "submit",
                 lambda f: traced("frontend.submit", f, request_id=_request_of(1)))
    patch_method(TieredResultCache, "lookup_with_source", lambda f: traced(
        "cache.lookup", f, attrs=lambda a, k, r: {"source": r[1]} if r else None))
    patch_method(TieredResultCache, "store", lambda f: traced("cache.store", f))
    patch_method(ResultCache, "lookup", lambda f: traced("cache.disk_lookup", f))
    patch_method(ResultCache, "store", lambda f: traced("cache.disk_store", f))
    patch_method(ResultCache, "invalidate", lambda f: traced(
        "cache.invalidate", f, before=lambda a, k: len(a[0]),
        attrs=lambda a, k, r: {"records": k["__before__"]}))
    patch_method(PortfolioScheduler, "run",
                 lambda f: traced("portfolio.run", f, attrs=_portfolio_attrs))
    patch_method(RankAggregator, "aggregate", lambda f: traced(
        "algorithms.aggregate", f, attrs=lambda a, k, r: {"algorithm": a[0].name}))
    patch_method(AnytimeController, "step", lambda f: traced("anytime.step", f))
    for method in ("add_ranking", "remove_ranking", "update_ranking"):
        patch_method(LiveDataset, method, lambda f: traced("live.delta", f))
    patch_method(LiveDataset, "snapshot", lambda f: traced("live.snapshot", f))
    patch_method(LiveJournal, "append", lambda f: traced("journal.append", f))
    patch_method(LiveAggregationSession, "repair", lambda f: traced(
        "live.repair", f, attrs=lambda a, k, r: {"steps": r.steps} if r else None))
    patch_method(ExecutionEngine, "run", lambda f: traced(
        "engine.run", f, attrs=lambda a, k, r: (
            {"executed": r.executed_runs, "cached": r.cached_runs} if r else None)))
    # The journal calls os.fsync through the os module.
    journal_module.os.fsync = traced("journal.fsync", os.fsync)


def write_spans(path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in SPANS:
            handle.write(json.dumps(record))
            handle.write("\n")


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[0] != "--trace-out" or argv[2] != "--":
        print("usage: launcher.py --trace-out FILE -- <python arguments>", file=sys.stderr)
        return 2
    out, command = Path(argv[1]), argv[3:]
    install()
    code = 0
    try:
        if command[0] == "-m":
            sys.argv = [command[1]] + command[2:]
            runpy.run_module(command[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = command
            runpy.run_path(command[0], run_name="__main__")
    except SystemExit as exit_:
        code = exit_.code if isinstance(exit_.code, int) else (0 if exit_.code is None else 1)
    finally:
        write_spans(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
