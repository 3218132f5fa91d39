"""Live serving: generation-aware coalescing, invalidation, warm repair."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LiveDataset, Ranking, prepare_rankings
from repro.service import (
    LiveAggregationSession,
    ServiceFrontend,
    ServiceRequest,
)
from repro.workloads import ChurnProfile, build_mutation_stream, run_churn_load


def _rankings():
    return [
        Ranking([["A"], ["B", "C"], ["D"]]),
        Ranking([["B"], ["A"], ["C", "D"]]),
        Ranking([["C"], ["B"], ["A"], ["D"]]),
    ]


@pytest.fixture
def frontend(tmp_path):
    return ServiceFrontend(tmp_path / "cache", default_budget_seconds=0.2, seed=3)


class TestGenerationCoalescing:
    def test_same_generation_coalesces(self, frontend):
        live = LiveDataset(_rankings(), name="gen")
        snapshot = live.snapshot()
        responses = frontend.submit_batch(
            [
                ServiceRequest(snapshot, algorithm="BordaCount"),
                ServiceRequest(snapshot, algorithm="BordaCount"),
            ]
        )
        assert responses[0].source == "computed"
        assert responses[1].source == "coalesced"

    def test_distinct_generations_not_coalesced(self, frontend):
        """Snapshots straddling a mutation never share one computation,
        even when their content fingerprints collide (A -> B -> A)."""
        live = LiveDataset(_rankings(), name="gen")
        first = live.snapshot()
        original = live[0]
        live.update_ranking(0, live[1])
        live.update_ranking(0, original)  # back to identical content
        third = live.snapshot()
        assert first.content_fingerprint() == third.content_fingerprint()
        assert first.metadata["generation"] != third.metadata["generation"]
        responses = ServiceFrontend(
            None, default_budget_seconds=0.2, seed=3
        ).submit_batch(
            [
                ServiceRequest(first, algorithm="BordaCount"),
                ServiceRequest(third, algorithm="BordaCount"),
            ]
        )
        assert [response.source for response in responses] == [
            "computed",
            "computed",
        ]

    def test_plain_datasets_still_coalesce(self, frontend):
        from repro.generators import uniform_dataset

        dataset = uniform_dataset(4, 6, rng=5, name="plain")
        responses = ServiceFrontend(
            None, default_budget_seconds=0.2
        ).submit_batch(
            [ServiceRequest(dataset, algorithm="BordaCount") for _ in range(3)]
        )
        assert [response.source for response in responses] == [
            "computed",
            "coalesced",
            "coalesced",
        ]


class TestInvalidation:
    def test_records_carry_dataset_fingerprint(self, frontend, tmp_path):
        live = LiveDataset(_rankings(), name="inv")
        snapshot = live.snapshot()
        frontend.submit(ServiceRequest(snapshot, algorithm="BordaCount"))
        removed = frontend.invalidate_dataset(snapshot.content_fingerprint())
        assert removed == 1
        # Gone from both tiers: the next request recomputes.
        response = frontend.submit(ServiceRequest(snapshot, algorithm="BordaCount"))
        assert response.source == "computed"

    def test_invalidate_unknown_fingerprint_is_noop(self, frontend):
        assert frontend.invalidate_dataset("0" * 64) == 0

    def test_invalidate_without_cache(self):
        assert ServiceFrontend(None).invalidate_dataset("0" * 64) == 0


class TestLiveAggregationSession:
    def test_cold_then_warm_repair(self):
        session = LiveAggregationSession(
            LiveDataset(_rankings(), name="session"), budget_seconds=0.2
        )
        cold = session.serve()
        assert cold.warm_start is False
        assert cold.previous_score is None
        assert session.score == cold.score
        session.mutate({"op": "update", "index": 0, "ranking": "[[D],[C],[B],[A]]"})
        assert session.is_stale
        warm = session.serve()
        assert warm.warm_start is True
        assert warm.previous_score is not None
        assert warm.score_delta == warm.previous_score - warm.score
        assert warm.score_delta >= 0
        assert not session.is_stale

    def test_serve_is_free_when_fresh(self):
        session = LiveAggregationSession(
            LiveDataset(_rankings()), budget_seconds=0.2
        )
        session.serve()
        again = session.serve()
        assert again.repair_seconds == 0.0
        assert again.steps == 0
        assert again.consensus == session.consensus

    def test_mutations_invalidate_and_repair_republishes(self, frontend):
        live = LiveDataset(_rankings(), name="pub")
        session = LiveAggregationSession(
            live, frontend=frontend, budget_seconds=0.2
        )
        report = session.serve()
        hit = frontend.submit(
            ServiceRequest(live.snapshot(), algorithm="BioConsert")
        )
        assert hit.cache_hit
        assert hit.score == report.score
        session.mutate({"op": "add", "ranking": "[[D],[C],[B],[A]]"})
        repaired = session.repair()
        assert repaired.invalidated >= 1
        hit_after = frontend.submit(
            ServiceRequest(live.snapshot(), algorithm="BioConsert")
        )
        assert hit_after.cache_hit
        assert hit_after.score == repaired.score

    def test_iterable_wrapped_and_non_anytime_rejected(self):
        session = LiveAggregationSession(_rankings())
        assert isinstance(session.dataset, LiveDataset)
        with pytest.raises(TypeError, match="anytime"):
            LiveAggregationSession(_rankings(), algorithm="BordaCount")

    def test_mutate_returns_the_resolved_record(self):
        session = LiveAggregationSession(LiveDataset(_rankings()))
        extra = "[[D],[C],[B],[A]]"
        assert session.mutate({"op": "add", "index": None, "ranking": extra}) == {
            "op": "add", "index": 3, "ranking": extra
        }
        assert session.mutate({"op": "remove", "index": 3}) == {
            "op": "remove", "index": 3
        }
        # An unbracketed line resolves to the canonical one the journal stores.
        assert session.mutate({"op": "update", "index": 0, "ranking": " [D],[C],[B],[A] "}) == {
            "op": "update", "index": 0, "ranking": extra
        }
        assert session.dataset[0] == Ranking([["D"], ["C"], ["B"], ["A"]])

    def test_report_describe_is_flat(self):
        session = LiveAggregationSession(
            LiveDataset(_rankings()), budget_seconds=0.2
        )
        payload = session.serve().describe()
        assert payload["generation"] == 0
        assert payload["warm_start"] is False
        assert isinstance(payload["fingerprint"], str)


class TestChurnWorkload:
    def test_mutation_stream_is_deterministic(self):
        live = LiveDataset(_rankings())
        profile = ChurnProfile(num_mutations=12, seed=9)
        first = build_mutation_stream(live, profile)
        second = build_mutation_stream(LiveDataset(_rankings()), profile)
        assert first == second
        assert len(first) == 12

    def test_run_churn_load_payload(self, frontend):
        payload = run_churn_load(
            ChurnProfile(num_mutations=6, budget_seconds=0.05, repair_every=2),
            frontend=frontend,
        )
        assert payload["report"] == "churn-load"
        assert payload["generations"] == 6
        assert payload["repairs"] == 3
        assert payload["warm_repairs"] == 3
        assert payload["weights_match_rebuild"] is True
        assert payload["invalidated"] >= 1

    def test_churn_keeps_weights_equal_to_rebuild(self):
        live = LiveDataset(_rankings(), name="churn-eq")
        for record in build_mutation_stream(
            live, ChurnProfile(num_mutations=20, seed=5)
        ):
            live.apply(record)
        fresh = prepare_rankings(list(live.rankings))
        assert np.array_equal(
            live.weights().before_matrix, fresh.weights.before_matrix
        )
        assert np.array_equal(live.weights().tied_matrix, fresh.weights.tied_matrix)
