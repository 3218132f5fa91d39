"""ServiceFrontend: caching tiers, coalescing, accounting."""

from __future__ import annotations

import bisect
import gc
import math
import random
import sys
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.kemeny import generalized_kemeny_score
from repro.engine import ResultCache, TieredResultCache
from repro.generators import markov_dataset, uniform_dataset
from repro.service import ServiceFrontend, ServiceRequest, ServiceStats
from repro.telemetry.metrics import DEFAULT_LATENCY_BUCKETS


@pytest.fixture(scope="module")
def dataset():
    return uniform_dataset(5, 9, 21)


@pytest.fixture(scope="module")
def other_dataset():
    return markov_dataset(5, 9, 200, 21)


class TestSubmit:
    def test_first_computed_then_memory_hit(self, tmp_path, dataset):
        frontend = ServiceFrontend(tmp_path / "cache", default_budget_seconds=0.5)
        first = frontend.submit(ServiceRequest(dataset, request_id="a"))
        second = frontend.submit(ServiceRequest(dataset, request_id="b"))
        assert first.source == "computed"
        assert second.source == "memory"
        assert second.cache_hit
        assert first.request_id == "a" and second.request_id == "b"
        assert first.consensus == second.consensus
        assert first.score == second.score

    def test_response_is_a_valid_scored_consensus(self, tmp_path, dataset):
        frontend = ServiceFrontend(tmp_path / "cache", default_budget_seconds=0.5)
        response = frontend.submit(ServiceRequest(dataset))
        assert response.consensus.domain == dataset.universe()
        assert response.score == generalized_kemeny_score(
            response.consensus, list(dataset.rankings)
        )

    def test_disk_hit_across_frontend_restarts(self, tmp_path, dataset):
        directory = tmp_path / "cache"
        ServiceFrontend(directory, default_budget_seconds=0.5).submit(
            ServiceRequest(dataset)
        )
        warm = ServiceFrontend(directory, default_budget_seconds=0.5)
        response = warm.submit(ServiceRequest(dataset))
        assert response.source == "disk"
        # Promoted to memory: the next lookup never touches the disk.
        assert warm.submit(ServiceRequest(dataset)).source == "memory"

    def test_plain_disk_cache_is_accepted(self, tmp_path, dataset):
        cache = ResultCache(tmp_path / "cache")
        frontend = ServiceFrontend(cache, default_budget_seconds=0.5)
        assert frontend.submit(ServiceRequest(dataset)).source == "computed"
        assert frontend.submit(ServiceRequest(dataset)).source == "disk"

    def test_no_cache_always_computes(self, dataset):
        frontend = ServiceFrontend(None, default_budget_seconds=0.2)
        assert frontend.submit(ServiceRequest(dataset)).source == "computed"
        assert frontend.submit(ServiceRequest(dataset)).source == "computed"

    def test_different_parameters_do_not_alias(self, tmp_path, dataset):
        frontend = ServiceFrontend(tmp_path / "cache", default_budget_seconds=0.5)
        frontend.submit(ServiceRequest(dataset, priority="balanced"))
        speed = frontend.submit(ServiceRequest(dataset, priority="speed"))
        assert speed.source == "computed"  # distinct cache key

    def test_pinned_algorithm(self, tmp_path, dataset):
        frontend = ServiceFrontend(tmp_path / "cache", default_budget_seconds=0.5)
        response = frontend.submit(ServiceRequest(dataset, algorithm="BordaCount"))
        assert response.algorithm == "BordaCount"
        assert response.source == "computed"
        again = frontend.submit(ServiceRequest(dataset, algorithm="BordaCount"))
        assert again.source == "memory"

    def test_cache_hit_preserves_element_types(self, tmp_path):
        # A text round-trip would coerce '01' to the int 1; the cached
        # record must reproduce the computed consensus exactly.
        from repro.core.ranking import Ranking
        from repro.datasets.dataset import Dataset

        dataset = Dataset(
            [
                Ranking([["01"], ["B"], ["2"]]),
                Ranking([["01"], ["2", "B"]]),
                Ranking([["B"], ["01"], ["2"]]),
            ],
            name="typed",
        )
        frontend = ServiceFrontend(tmp_path / "cache", default_budget_seconds=0.5)
        cold = frontend.submit(ServiceRequest(dataset))
        warm = frontend.submit(ServiceRequest(dataset))
        assert warm.source == "memory"
        assert warm.consensus == cold.consensus
        assert warm.consensus.domain == frozenset({"01", "B", "2"})
        # And across a frontend restart (disk tier).
        restarted = ServiceFrontend(tmp_path / "cache", default_budget_seconds=0.5)
        disk = restarted.submit(ServiceRequest(dataset))
        assert disk.source == "disk"
        assert disk.consensus == cold.consensus

    def test_incomplete_dataset_is_unified(self, tmp_path, raw_table3_dataset):
        frontend = ServiceFrontend(tmp_path / "cache", default_budget_seconds=0.5)
        response = frontend.submit(ServiceRequest(raw_table3_dataset))
        assert response.consensus.domain == raw_table3_dataset.universe()


class TestBatchCoalescing:
    def test_identical_requests_computed_once(self, tmp_path, dataset):
        frontend = ServiceFrontend(tmp_path / "cache", default_budget_seconds=0.5)
        responses = frontend.submit_batch(
            [ServiceRequest(dataset, request_id=f"r{i}") for i in range(4)]
        )
        assert [r.source for r in responses] == [
            "computed",
            "coalesced",
            "coalesced",
            "coalesced",
        ]
        assert len({r.score for r in responses}) == 1
        assert [r.request_id for r in responses] == ["r0", "r1", "r2", "r3"]

    def test_mixed_batch_groups_by_fingerprint(self, tmp_path, dataset, other_dataset):
        frontend = ServiceFrontend(tmp_path / "cache", default_budget_seconds=0.5)
        responses = frontend.submit_batch(
            [
                ServiceRequest(dataset),
                ServiceRequest(other_dataset),
                ServiceRequest(dataset),
            ]
        )
        assert responses[0].source == "computed"
        assert responses[1].source == "computed"
        assert responses[2].source == "coalesced"
        assert responses[0].consensus == responses[2].consensus

    def test_batch_after_warmup_hits_cache(self, tmp_path, dataset):
        frontend = ServiceFrontend(tmp_path / "cache", default_budget_seconds=0.5)
        frontend.submit(ServiceRequest(dataset))
        responses = frontend.submit_batch([ServiceRequest(dataset)] * 3)
        assert responses[0].source == "memory"
        assert [r.source for r in responses[1:]] == ["coalesced", "coalesced"]


class TestStats:
    def test_accounting_matches_traffic(self, tmp_path, dataset, other_dataset):
        frontend = ServiceFrontend(tmp_path / "cache", default_budget_seconds=0.5)
        frontend.submit(ServiceRequest(dataset))  # computed
        frontend.submit(ServiceRequest(dataset))  # memory
        frontend.submit_batch([ServiceRequest(other_dataset)] * 2)  # computed+coalesced
        stats = frontend.stats()
        assert stats.requests == 4
        assert stats.computed == 2
        assert stats.memory_hits == 1
        assert stats.coalesced == 1
        assert 0.0 < stats.hit_rate < 1.0
        payload = frontend.describe()
        assert payload["requests"] == 4
        assert payload["latency_p95_seconds"] >= payload["latency_p50_seconds"] >= 0.0
        assert "cache" in payload

    def test_tiered_cache_created_from_path(self, tmp_path):
        frontend = ServiceFrontend(tmp_path / "cache", memory_entries=3)
        assert isinstance(frontend.cache, TieredResultCache)
        assert frontend.cache.memory.max_entries == 3


def _outcomes(count: int, seed: int) -> list[dict]:
    """Seeded wire payloads covering every outcome kind."""
    rng = random.Random(seed)
    kinds = [
        ("ok", "computed"), ("ok", "memory"), ("ok", "disk"), ("ok", "coalesced"),
        ("overloaded", "rejected"), ("draining", "rejected"),
        ("deadline", "rejected"), ("failed", "error"),
    ]
    outcomes = []
    for _ in range(count):
        status, source = rng.choice(kinds)
        queue = rng.expovariate(500.0)
        execution = rng.expovariate(50.0)
        outcomes.append({
            "status": status, "source": source, "error": None,
            "queue_seconds": queue, "execution_seconds": execution,
            "latency_seconds": queue + execution,
        })
    return outcomes


def _stats_of(outcomes: list[dict]) -> ServiceStats:
    stats = ServiceStats()
    for outcome in outcomes:
        stats.record(outcome)
    return stats


def _held_items(root) -> int:
    """Items of every container reachable from ``root`` (types skipped)."""
    seen, stack, total = set(), [root], 0
    while stack:
        item = stack.pop()
        if id(item) in seen or isinstance(item, (type, types.ModuleType)):
            continue
        seen.add(id(item))
        if isinstance(item, (list, tuple, dict, set, frozenset)):
            total += len(item)
        stack.extend(gc.get_referents(item))
    return total


class TestServiceStatsRegistry:
    """ServiceStats keeps constant-size counters and histograms."""

    def test_holds_no_per_answer_container(self):
        stats = ServiceStats()
        outcome = _outcomes(1, seed=1)[0]
        for recorded in (1_000, 100_000):
            while stats.requests < recorded:
                stats.record(outcome)
            if recorded == 1_000:
                held = _held_items(stats)
        assert stats.requests == 100_000
        assert _held_items(stats) == held
        assert held < 1_000

    def test_counts_mean_and_max_are_exact(self):
        outcomes = _outcomes(5_000, seed=2)
        payload = _stats_of(outcomes).describe()
        kinds = {
            "computed": ("ok", "computed"), "memory_hits": ("ok", "memory"),
            "disk_hits": ("ok", "disk"), "coalesced": ("ok", "coalesced"),
            "deadline_misses": ("deadline", "rejected"), "failed": ("failed", "error"),
        }
        for key, (status, source) in kinds.items():
            assert payload[key] == sum(
                o["status"] == status and o["source"] == source for o in outcomes
            ), key
        assert payload["rejected"] == sum(
            o["status"] in ("overloaded", "draining") for o in outcomes
        )
        assert payload["requests"] == len(outcomes)
        for prefix, field in (
            ("latency", "latency_seconds"),
            ("queue", "queue_seconds"),
            ("execution", "execution_seconds"),
        ):
            sample = [o[field] for o in outcomes]
            assert payload[f"{prefix}_mean_seconds"] == pytest.approx(
                sum(sample) / len(sample), rel=1e-12
            )
            assert payload[f"{prefix}_max_seconds"] == max(sample)

    @pytest.mark.parametrize("fraction", [0.50, 0.95])
    def test_percentile_falls_in_the_true_quantile_bucket(self, fraction):
        outcomes = _outcomes(5_000, seed=3)
        estimate = _stats_of(outcomes).describe()[
            f"latency_p{round(fraction * 100)}_seconds"
        ]
        ordered = sorted(o["latency_seconds"] for o in outcomes)
        true = ordered[math.ceil(fraction * len(ordered)) - 1]
        bounds = DEFAULT_LATENCY_BUCKETS
        index = bisect.bisect_left(bounds, true)
        lower = bounds[index - 1] if index > 0 else 0.0
        upper = bounds[index] if index < len(bounds) else ordered[-1]
        assert lower <= estimate <= upper

    def test_concurrent_recording_loses_no_answer(self):
        # A thread-mode shard's executor and the event loop record into one
        # registry at once.
        outcomes = _outcomes(2_000, seed=6)
        stats = ServiceStats()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(lambda: [stats.record(o) for o in outcomes])
                    for _ in range(4)
                ]
                for future in futures:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        payload = stats.describe()
        assert payload["requests"] == 4 * len(outcomes)
        counted = sum(payload[key] for key in (
            "computed", "memory_hits", "disk_hits", "coalesced",
            "rejected", "deadline_misses", "failed",
        ))
        assert counted == 4 * len(outcomes)

    def test_merge_equals_one_registry_fed_both_streams(self):
        first, second = _outcomes(2_000, seed=4), _outcomes(3_000, seed=5)
        merged = _stats_of(first)
        merged.merge(_stats_of(second))
        assert merged.describe() == pytest.approx(
            _stats_of(first + second).describe(), rel=1e-12
        )


class TestLatencySplit:
    def test_submit_has_no_queue_wait(self, tmp_path, dataset):
        frontend = ServiceFrontend(tmp_path / "cache", default_budget_seconds=0.5)
        response = frontend.submit(ServiceRequest(dataset))
        assert response.queue_seconds == 0.0
        assert response.execution_seconds > 0.0
        assert response.latency_seconds == pytest.approx(
            response.queue_seconds + response.execution_seconds
        )

    def test_batch_leader_and_followers_split(self, tmp_path, dataset):
        frontend = ServiceFrontend(tmp_path / "cache", default_budget_seconds=0.5)
        leader, *followers = frontend.submit_batch(
            [ServiceRequest(dataset, request_id=f"r{i}") for i in range(3)]
        )
        assert leader.source == "computed"
        assert leader.execution_seconds > 0.0
        assert leader.latency_seconds == pytest.approx(
            leader.queue_seconds + leader.execution_seconds
        )
        for follower in followers:
            assert follower.source == "coalesced"
            # A coalesced answer did no work of its own: its whole latency
            # is the wait for the leader's computation.
            assert follower.execution_seconds == 0.0
            assert follower.queue_seconds >= leader.execution_seconds
            assert follower.latency_seconds == pytest.approx(follower.queue_seconds)

    def test_describe_reports_the_split(self, tmp_path, dataset):
        frontend = ServiceFrontend(tmp_path / "cache", default_budget_seconds=0.5)
        frontend.submit(ServiceRequest(dataset))
        frontend.submit_batch([ServiceRequest(dataset)] * 2)
        payload = frontend.describe()
        for key in (
            "queue_mean_seconds",
            "queue_max_seconds",
            "execution_mean_seconds",
            "execution_max_seconds",
        ):
            assert payload[key] >= 0.0
        assert payload["queue_max_seconds"] > 0.0  # the coalesced follower waited
        assert payload["execution_max_seconds"] > 0.0
