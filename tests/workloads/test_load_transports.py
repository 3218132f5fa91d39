"""One schedule, two drivers: determinism pins and cross-transport parity.

:func:`~repro.workloads.build_http_schedule` feeds both the socket driver
(:func:`~repro.workloads.drive_http_load`) and the in-process driver
(:func:`~repro.workloads.run_inprocess_load`).  These tests pin

* the schedule and mutation-stream digests, so a refactor of the load
  generator cannot silently change what a seeded run replays;
* that one schedule gives the same answers through either driver;
* the in-process driver's serving behaviour (ids, skew, coalescing and
  cache-tier accounting) that ``repro-rankagg serve`` reports;
* profile validation of the write-side workloads.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
from dataclasses import replace

import pytest

import repro.workloads.recovery as recovery
from repro.core.live import LiveDataset
from repro.core.ranking import parse_ranking
from repro.service import ServiceFrontend
from repro.service.http import HttpAggregationServer
from repro.service.http.protocol import decode_aggregate_request
from repro.workloads import (
    ChurnProfile,
    HttpLoadProfile,
    KillRestartProfile,
    build_http_schedule,
    build_mutation_stream,
    drive_http_load,
    get_scenario,
    run_inprocess_load,
    run_kill_restart_churn,
)

# The profile of tests/workloads/test_http_load.py.
PROFILE = HttpLoadProfile(
    scenarios=("mallows-ties-diffuse",),
    scale="smoke",
    num_requests=16,
    budget_seconds=0.05,
    concurrency=3,
    seed=424,
)

SCHEDULE_FINGERPRINTS = {
    None: "b8a90d3028aef58f2d4b31f8fae4b26ae8b07f8150b54923207f35aacbce424b",
    "BordaCount": (
        "c0e16f55c3174d605a42232fa56806816eccc8c691cceb64b732b5abe4bba6df"
    ),
    "KwikSort": (
        "a14c9cb6a3150f3f143531ec7c6fcc579621d10c534767fe53513543cbd249b8"
    ),
}

# Both streams are drawn from the same seed, size and base dataset, so
# they coincide; they are pinned separately because they are built by
# separate callers.
CHURN_STREAM_DIGEST = (
    "674ff168349b768fca79194c8c80a0b33eefc0e5b21c261f4b99959d248f2dea"
)
KILL_RESTART_STREAM_DIGEST = CHURN_STREAM_DIGEST

# The in-process serving profile of the moved service-load tests.
SERVING = HttpLoadProfile(
    scenarios=("mallows-ties-diffuse",),
    scale="smoke",
    num_requests=12,
    budget_seconds=0.1,
    concurrency=4,
    seed=3,
)


def _stream_digest(stream) -> str:
    """SHA-256 of a mutation stream with every bucket in sorted order."""

    def buckets(line):
        return [sorted(bucket) for bucket in parse_ranking(line).buckets]

    document = []
    for record in stream:
        kind = record["op"]
        if kind == "add":
            assert record["index"] is None  # appends
            document.append([kind, buckets(record["ranking"])])
        elif kind == "remove":
            document.append([kind, record["index"]])
        else:
            document.append([kind, [record["index"], buckets(record["ranking"])]])
    canonical = json.dumps(document, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------- #
# Determinism pins
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "algorithm", list(SCHEDULE_FINGERPRINTS), ids=lambda name: str(name)
)
def test_schedule_fingerprint_is_pinned(algorithm):
    schedule = build_http_schedule(replace(PROFILE, algorithm=algorithm))
    assert schedule.fingerprint() == SCHEDULE_FINGERPRINTS[algorithm]


def test_churn_mutation_stream_is_pinned():
    profile = ChurnProfile(num_mutations=40, seed=2015)
    base = get_scenario(profile.scenario).build(profile.scale, profile.seed)[0]
    stream = build_mutation_stream(LiveDataset(base.rankings), profile)
    assert len(stream) == 40
    assert _stream_digest(stream) == CHURN_STREAM_DIGEST


class _StreamBuilt(Exception):
    """Stops the kill-restart run once its stream exists."""


def test_kill_restart_mutation_stream_is_pinned(monkeypatch, tmp_path):
    streams = []

    def capture(dataset, profile):
        streams.append(build_mutation_stream(dataset, profile))
        raise _StreamBuilt

    monkeypatch.setattr(recovery, "build_mutation_stream", capture)
    with pytest.raises(_StreamBuilt):
        run_kill_restart_churn(
            KillRestartProfile(), journal_dir=tmp_path / "journal"
        )
    assert len(streams[0]) == KillRestartProfile().num_mutations
    assert _stream_digest(streams[0]) == KILL_RESTART_STREAM_DIGEST


# --------------------------------------------------------------------- #
# Cross-transport parity
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("algorithm", ["BordaCount", "KwikSort"])
def test_inprocess_and_socket_drivers_give_equal_results(tmp_path, algorithm):
    schedule = build_http_schedule(replace(PROFILE, algorithm=algorithm))

    async def over_socket():
        server = HttpAggregationServer(
            str(tmp_path / "socket-cache"), shards=2, mode="thread", seed=11,
            default_budget_seconds=0.05,
        )
        await server.start()
        try:
            return await drive_http_load(
                schedule, host=server.host, port=server.port
            )
        finally:
            await server.drain()

    socket_report = asyncio.run(over_socket())
    inprocess_report = run_inprocess_load(
        schedule,
        ServiceFrontend(
            tmp_path / "inprocess-cache", default_budget_seconds=0.05, seed=11
        ),
    )
    assert socket_report["failed"] == inprocess_report["failed"] == 0
    assert inprocess_report["transport"] == "in-process"
    assert (
        inprocess_report["schedule_fingerprint"]
        == socket_report["schedule_fingerprint"]
    )
    assert (
        inprocess_report["result_fingerprints"]
        == socket_report["result_fingerprints"]
    )
    assert (
        inprocess_report["results_fingerprint"]
        == socket_report["results_fingerprint"]
    )


def test_inprocess_driver_reproduces_the_serve_breakdown(tmp_path):
    profile = HttpLoadProfile(
        scenarios=("mallows-ties-diffuse", "markov-similarity"),
        num_requests=40,
        budget_seconds=0.1,
        concurrency=8,
        seed=3,
    )
    frontend = ServiceFrontend(
        tmp_path / "cache", default_budget_seconds=0.1, seed=3
    )
    report = run_inprocess_load(build_http_schedule(profile), frontend)
    assert report["by_source"] == {"coalesced": 24, "computed": 4, "memory": 12}
    assert report["frontend"]["hit_rate"] == pytest.approx(0.9)


# --------------------------------------------------------------------- #
# In-process serving behaviour
# --------------------------------------------------------------------- #
def test_schedule_length_and_ids():
    schedule = build_http_schedule(SERVING)
    assert len(schedule) == 12
    requests = [decode_aggregate_request(slot.wire) for slot in schedule.requests]
    assert [r.request_id for r in requests[:2]] == ["http-00000", "http-00001"]
    assert all(r.budget_seconds == 0.1 for r in requests)


def test_schedule_is_deterministic():
    first = build_http_schedule(SERVING)
    second = build_http_schedule(SERVING)
    assert [slot.dataset_index for slot in first.requests] == [
        slot.dataset_index for slot in second.requests
    ]
    assert first.fingerprint() == second.fingerprint()


def test_skew_repeats_popular_datasets():
    schedule = build_http_schedule(SERVING)
    indices = [slot.dataset_index for slot in schedule.requests]
    # Far fewer distinct datasets than requests: traffic is repetitive.
    assert len(set(indices)) < len(indices)


def test_unknown_scenario_is_rejected():
    with pytest.raises(ValueError):
        build_http_schedule(HttpLoadProfile(scenarios=("unknown-scenario",)))


def test_inprocess_report_sums_sources_and_computes_each_dataset_once(tmp_path):
    frontend = ServiceFrontend(tmp_path / "cache", default_budget_seconds=0.1)
    report = run_inprocess_load(build_http_schedule(SERVING), frontend)
    assert report["transport"] == "in-process"
    assert report["profile"]["num_requests"] == 12
    assert report["failed"] == 0
    assert sum(report["by_source"].values()) == 12
    assert report["frontend"]["requests"] == 12
    # Repetitive traffic must be served from the cache or coalesced.
    assert report["frontend"]["hit_rate"] > 0.0
    assert report["by_source"].get("computed", 0) == report["distinct_datasets"]


def test_warm_inprocess_replay_computes_nothing(tmp_path):
    directory = tmp_path / "cache"
    schedule = build_http_schedule(SERVING)
    run_inprocess_load(
        schedule, ServiceFrontend(directory, default_budget_seconds=0.1)
    )
    warm = ServiceFrontend(directory, default_budget_seconds=0.1)
    report = run_inprocess_load(schedule, warm)
    assert report["by_source"].get("computed", 0) == 0
    assert report["frontend"]["hit_rate"] == 1.0


# --------------------------------------------------------------------- #
# Write-side profile validation
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "build,match",
    [
        (lambda: ChurnProfile(repair_every=0), "repair_every"),
        (lambda: ChurnProfile(num_mutations=-1), "num_mutations"),
        (lambda: ChurnProfile(mutation_mix=(0.5, 0.5)), "mutation_mix"),
        (lambda: ChurnProfile(mutation_mix=(math.nan, 1, 1)), "mutation_mix"),
        (lambda: ChurnProfile(mutation_mix=(math.inf, 1, 1)), "mutation_mix"),
        (lambda: ChurnProfile(mutation_mix=(-0.1, 0.5, 0.6)), "mutation_mix"),
        (lambda: ChurnProfile(mutation_mix=(0.0, 0.0, 0.0)), "mutation_mix"),
        (lambda: KillRestartProfile(repair_every=0), "repair_every"),
    ],
    ids=[
        "churn-repair-every-0",
        "churn-negative-mutations",
        "churn-mix-two-weights",
        "churn-mix-nan",
        "churn-mix-inf",
        "churn-mix-negative",
        "churn-mix-zero-sum",
        "kill-restart-repair-every-0",
    ],
)
def test_write_profiles_reject_invalid_values(build, match):
    with pytest.raises(ValueError, match=match):
        build()
