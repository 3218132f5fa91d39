"""Graceful degradation of the serving layer under load and failures."""

from __future__ import annotations

import pytest

from repro.generators import uniform_dataset
from repro.service import (
    PortfolioScheduler,
    ServiceFrontend,
    ServiceRequest,
)
from repro.testing import FaultInjector, FaultRule, injected


@pytest.fixture(scope="module")
def dataset():
    return uniform_dataset(4, 7, rng=11, name="svc")


@pytest.fixture(scope="module")
def other_dataset():
    return uniform_dataset(4, 7, rng=12, name="svc2")


class TestPerRequestDeadlines:
    def test_expired_deadline_rejects_before_execution(self, dataset):
        frontend = ServiceFrontend(None, default_budget_seconds=0.2)
        responses = frontend.submit_batch(
            [
                ServiceRequest(dataset, request_id="live"),
                # Queued behind the first group: by the time its group is
                # reached some wall-clock has passed, exceeding a 0s deadline.
                ServiceRequest(
                    uniform_dataset(4, 7, rng=13, name="late"),
                    request_id="late",
                    deadline_seconds=0.0,
                ),
            ]
        )
        live, late = responses
        assert live.status == "ok"
        assert late.status == "deadline"
        assert late.source == "rejected"
        assert late.consensus is None
        assert "deadline 0.0s expired" in late.error
        assert frontend.stats().deadline_misses == 1

    def test_next_live_request_is_promoted_to_leader(self, dataset):
        frontend = ServiceFrontend(None, default_budget_seconds=0.2)
        responses = frontend.submit_batch(
            [
                ServiceRequest(dataset, request_id="doomed", deadline_seconds=0.0),
                ServiceRequest(dataset, request_id="leader"),
                ServiceRequest(dataset, request_id="follower"),
            ]
        )
        doomed, leader, follower = responses
        assert doomed.status == "deadline"
        assert leader.status == "ok" and leader.source == "computed"
        assert follower.status == "ok" and follower.source == "coalesced"
        assert follower.consensus == leader.consensus

    def test_direct_submit_ignores_deadline(self, dataset):
        # submit() never queues, so even a zero deadline is satisfiable.
        frontend = ServiceFrontend(None, default_budget_seconds=0.2)
        response = frontend.submit(ServiceRequest(dataset, deadline_seconds=0.0))
        assert response.status == "ok"


class TestFailurePropagation:
    def test_failed_computation_degrades_instead_of_raising(self, dataset):
        frontend = ServiceFrontend(None, default_budget_seconds=0.2)
        response = frontend.submit(
            ServiceRequest(dataset, algorithm="NoSuchAlgorithm")
        )
        assert response.status == "failed"
        assert response.source == "error"
        assert response.consensus is None
        assert "NoSuchAlgorithm" in response.error
        assert frontend.stats().failed == 1

    def test_failed_leader_propagates_to_coalesced_followers(self, dataset):
        frontend = ServiceFrontend(None, default_budget_seconds=0.2)
        responses = frontend.submit_batch(
            [
                ServiceRequest(dataset, algorithm="NoSuchAlgorithm", request_id="a"),
                ServiceRequest(dataset, algorithm="NoSuchAlgorithm", request_id="b"),
            ]
        )
        leader, follower = responses
        assert leader.status == "failed" and leader.source == "error"
        assert follower.status == "failed" and follower.source == "coalesced"
        assert follower.error == leader.error
        assert follower.consensus is None
        # Both count as failed; the follower still coalesced (no recompute).
        assert frontend.stats().failed == 2

    def test_mixed_batch_failure_does_not_poison_other_groups(
        self, dataset, other_dataset
    ):
        frontend = ServiceFrontend(None, default_budget_seconds=0.2)
        responses = frontend.submit_batch(
            [
                ServiceRequest(dataset, algorithm="NoSuchAlgorithm"),
                ServiceRequest(other_dataset),
            ]
        )
        assert responses[0].status == "failed"
        assert responses[1].status == "ok"
        assert responses[1].consensus is not None


class TestPortfolioMemberRetries:
    def test_transient_member_failure_is_retried(self, dataset):
        injector = FaultInjector(
            rules=(
                FaultRule(
                    site="portfolio.member",
                    kind="exception",
                    match="BordaCount",
                    max_attempt=1,
                ),
            )
        )
        scheduler = PortfolioScheduler(
            budget_seconds=1.0, algorithms=["BordaCount"], member_attempts=2
        )
        with injected(injector):
            result = scheduler.run(dataset)
        assert result.algorithm == "BordaCount"
        assert result.score is not None
        member = next(m for m in result.members if m.algorithm == "BordaCount")
        assert member.status == "finished"

    def test_persistent_member_failure_falls_back_to_floor(self, dataset):
        injector = FaultInjector(
            rules=(FaultRule(site="portfolio.member", kind="exception"),)
        )
        scheduler = PortfolioScheduler(
            budget_seconds=1.0, algorithms=["BordaCount"], member_attempts=2
        )
        with injected(injector):
            result = scheduler.run(dataset)
        # Every budgeted member failed, but the forced floor run (the
        # cheapest one-shot member, unbudgeted and outside the injection
        # site) still produced a consensus: the race degrades, not aborts.
        assert result.consensus is not None
        assert result.score is not None
        statuses = {member.status for member in result.members}
        assert "failed" in statuses
        failed = next(m for m in result.members if m.status == "failed")
        assert "transient failure persisted after 2 attempt(s)" in failed.reason

    def test_member_attempts_validation(self):
        with pytest.raises(ValueError, match="member_attempts"):
            PortfolioScheduler(member_attempts=0)

    def test_simulated_crash_is_retried_like_transient(self, dataset):
        injector = FaultInjector(
            rules=(
                FaultRule(
                    site="portfolio.member",
                    kind="crash",
                    match="BordaCount",
                    max_attempt=1,
                ),
            )
        )
        scheduler = PortfolioScheduler(
            budget_seconds=1.0, algorithms=["BordaCount"], member_attempts=2
        )
        with injected(injector):
            result = scheduler.run(dataset)
        member = next(m for m in result.members if m.algorithm == "BordaCount")
        assert member.status == "finished"
        assert result.consensus is not None
