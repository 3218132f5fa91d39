"""Per-layer metrics of a traced run, from its spans and client samples.

Only spans that start inside the workload's timed windows count (set-up,
cached re-sends and the write probe are left out).  A span's *self* time
is its duration minus the durations of its child spans; *inclusive*
metrics keep the whole duration.  Unless ``spec.json`` says otherwise a
time is the mean per call of the wrapped entry point and 0 when the
window never called it.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from pathlib import Path

from perfbench.stats import mean

#: Algorithms with their own ``algorithms.<name>.aggregate_ms`` metric;
#: anything else that runs is reported under ``algorithms.other``.
ALGORITHMS = (
    "BioConsert", "BordaCount", "CopelandMethod", "FaginLarge", "FaginSmall",
    "KwikSort", "KwikSortMin", "MEDRank(0.5)", "MEDRank(0.7)", "Pick-a-Perm",
    "RepeatChoice", "RepeatChoiceMin", "ExactSubsetDP", "Chanas",
)
MEMBER_STATUSES = (("finished", "finished"), ("over_budget", "over-budget"),
                   ("skipped", "skipped"), ("cancelled", "cancelled"))


def metric_name(algorithm: str) -> str:
    """``MEDRank(0.5)`` -> ``MEDRank_0.5``: the characters a name allows."""
    return re.sub(r"[^A-Za-z0-9_.-]", "_", algorithm).strip("_")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "rid", "attrs", "children")

    def __init__(self, record):
        self.id, self.name, self.start, self.end, self.parent, self.rid, self.attrs = record
        self.children = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return max(0.0, self.duration - self.children)


def load_spans(path: Path) -> list[Span]:
    spans = [Span(json.loads(line)) for line in path.read_text().splitlines() if line]
    by_id = {span.id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is not None:
            parent.children += span.duration
    for span in spans:
        span.parent = by_id.get(span.parent)
    return spans


def layer_metrics(outcome) -> dict[str, float]:
    """Every per-layer metric for one traced workload run."""
    windows = outcome.windows
    spans = [
        s for s in load_spans(outcome.trace)
        if any(start <= s.start <= end for start, end in windows)
    ]
    named = defaultdict(list)
    for span in spans:
        named[span.name].append(span)

    def self_ms(name):
        return 1000.0 * mean(s.self_time for s in named[name])

    def inclusive_ms(spans_):
        return 1000.0 * mean(s.duration for s in spans_)

    def under(name, parent_name):
        return [s for s in named[name] if s.parent is not None and s.parent.name == parent_name]

    aggregate = [s for s in outcome.samples if s.path == "/aggregate"]
    ok = [s for s in aggregate if s.code == 200]
    submits = {s.rid: s for s in named["http.submit"]}
    overheads = [
        (s.latency - s.late) - submits[s.request_id].duration
        for s in ok if s.request_id in submits
    ]
    operations = max(1, outcome.operations)
    runs = [s.attrs for s in named["portfolio.run"] if s.attrs]
    lookups = named["cache.lookup"]
    appends = named["journal.append"]
    metrics = {
        "http.overhead_ms": 1000.0 * mean(overheads),
        "http.queue_ms": 1000.0 * mean(float(s.payload.get("queue_seconds") or 0.0) for s in ok),
        "http.route_ms": self_ms("http.route"),
        "http.coalesced_share": mean(1.0 if s.payload.get("source") == "coalesced" else 0.0
                                     for s in ok),
        "http.rejected": float(sum(1 for s in aggregate if s.code == 503)),
        "datasets.decode_ms": self_ms("datasets.decode"),
        "datasets.fingerprint_ms": (
            1000.0 * sum(s.self_time for s in named["datasets.fingerprint"]) / len(aggregate)
            if aggregate else 0.0
        ),
        "datasets.normalize_ms": self_ms("datasets.normalize"),
        "datasets.body_kb": mean(s.body_bytes / 1024.0 for s in aggregate),
        "frontend.submit_ms": self_ms("frontend.submit"),
        "cache.lookup_ms": inclusive_ms(lookups),
        "cache.memory_hit_share": mean(
            1.0 if (s.attrs or {}).get("source") == "memory" else 0.0 for s in lookups
        ),
        "cache.store_ms": inclusive_ms(named["cache.store"]),
        "cache.invalidate_ms": inclusive_ms(named["cache.invalidate"]),
        "cache.records_scanned": mean(s.attrs["records"] for s in named["cache.invalidate"]
                                      if s.attrs),
        "guidance.profile_ms": self_ms("guidance.profile"),
        "guidance.recommend_ms": self_ms("guidance.recommend"),
        "prepared.build_ms": self_ms("prepared.build"),
        "prepared.builds": len(named["prepared.build"]) / operations,
        "portfolio.run_ms": inclusive_ms(named["portfolio.run"]),
        "portfolio.overrun_ms": 1000.0 * mean(
            s.duration - (s.attrs["budget"] or 0.0) for s in named["portfolio.run"] if s.attrs
        ),
        "portfolio.useful_share": (
            sum(r["kept_seconds"] for r in runs) / sum(r["member_seconds"] for r in runs)
            if runs and sum(r["member_seconds"] for r in runs) > 0 else 0.0
        ),
        "anytime.steps": len(named["anytime.step"]) / operations,
        "anytime.step_ms": self_ms("anytime.step"),
        "kemeny.score_ms": self_ms("kemeny.score"),
        "live.delta_ms": self_ms("live.delta"),
        "live.snapshot_ms": self_ms("live.snapshot"),
        "journal.append_ms": inclusive_ms(appends),
        "journal.fsyncs": len(named["journal.fsync"]) / len(appends) if appends else 0.0,
        "journal.bytes": outcome.journal_bytes,
        "live.repair_ms": inclusive_ms(named["live.repair"]),
        "live.repair_steps": mean(s.attrs["steps"] for s in named["live.repair"] if s.attrs),
        "live.publish_ms": (
            1000.0 * sum(s.duration for s in under("cache.store", "live.repair"))
            / len(named["live.repair"]) if named["live.repair"] else 0.0
        ),
        "engine.run_ms": inclusive_ms(named["engine.run"]),
        "engine.spec_ms": inclusive_ms(named["engine.spec"]),
        "engine.executed": mean(s.attrs["executed"] for s in named["engine.run"] if s.attrs),
        "engine.cached": mean(s.attrs["cached"] for s in named["engine.run"] if s.attrs),
        "engine.cache_lookup_ms": inclusive_ms(under("cache.disk_lookup", "engine.run")),
        "engine.cache_store_ms": inclusive_ms(under("cache.disk_store", "engine.run")),
        "loadgen.late_ms": 1000.0 * mean(s.late for s in aggregate),
    }
    for key, status in MEMBER_STATUSES:
        metrics[f"portfolio.members.{key}"] = mean(r["statuses"].get(status, 0) for r in runs)
    by_algorithm = defaultdict(list)
    for span in named["algorithms.aggregate"]:
        name = (span.attrs or {}).get("algorithm")
        by_algorithm[name if name in ALGORITHMS else "other"].append(span.self_time)
    for name in ALGORITHMS + ("other",):
        metrics[f"algorithms.{metric_name(name)}.aggregate_ms"] = 1000.0 * mean(by_algorithm[name])
    return metrics
