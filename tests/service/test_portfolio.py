"""PortfolioScheduler: budget honouring, winner selection, cancellation."""

from __future__ import annotations

import time

import pytest

from repro.algorithms import make_algorithm
from repro.core.kemeny import generalized_kemeny_score
from repro.generators import uniform_dataset
from repro.service import PortfolioScheduler
from repro.testing import FaultInjector, FaultRule, injected


@pytest.fixture(scope="module")
def small_dataset():
    return uniform_dataset(5, 10, 13)


@pytest.fixture(scope="module")
def medium_dataset():
    return uniform_dataset(7, 20, 13)


class TestCandidateSelection:
    def test_guidance_candidates_include_floor(self, small_dataset):
        scheduler = PortfolioScheduler(budget_seconds=1.0)
        names = scheduler.candidates(small_dataset)
        assert "BordaCount" in names
        assert names[0] == "BioConsert"  # guidance primary for balanced

    def test_explicit_candidates_bypass_guidance(self, small_dataset):
        scheduler = PortfolioScheduler(
            budget_seconds=1.0, algorithms=["KwikSort"], include_floor=False
        )
        assert scheduler.candidates(small_dataset) == ["KwikSort"]

    def test_optimality_priority_includes_exact_on_small_datasets(self, small_dataset):
        scheduler = PortfolioScheduler(budget_seconds=10.0, priority="optimality")
        assert "ExactAlgorithm" in scheduler.candidates(small_dataset)

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            PortfolioScheduler(budget_seconds=-1.0)


class TestBudgetedRuns:
    def test_tight_budget_returns_valid_consensus(self, medium_dataset):
        result = PortfolioScheduler(budget_seconds=0.05, seed=1).run(medium_dataset)
        assert result.consensus.domain == medium_dataset.universe()
        assert result.score == generalized_kemeny_score(
            result.consensus, list(medium_dataset.rankings)
        )

    def test_zero_budget_still_answers(self, medium_dataset):
        result = PortfolioScheduler(budget_seconds=0.0, seed=1).run(medium_dataset)
        assert result.consensus.domain == medium_dataset.universe()
        # The one-shot floor is skipped at zero budget, but every anytime
        # racer takes its guaranteed first increment.
        anytime = [m for m in result.members if m.mode == "anytime"]
        assert anytime and all(m.steps >= 1 for m in anytime)

    def test_zero_budget_with_only_one_shot_members_still_answers(self, small_dataset):
        # No anytime racer and an exhausted budget: the floor algorithm is
        # force-run so the contract "a deadline always yields a valid
        # consensus" holds.
        result = PortfolioScheduler(
            budget_seconds=0.0, algorithms=["BordaCount"], seed=1
        ).run(small_dataset)
        assert result.consensus.domain == small_dataset.universe()
        forced = [m for m in result.members if m.reason and "forced floor" in m.reason]
        assert forced and forced[0].status == "finished"

    def test_exponential_solver_skipped_when_budget_cannot_cover_it(self):
        dataset = uniform_dataset(7, 16, 5)
        scheduler = PortfolioScheduler(
            budget_seconds=0.5, priority="optimality", seed=1
        )
        result = scheduler.run(dataset)
        exact = [m for m in result.members if m.algorithm == "ExactAlgorithm"]
        assert exact and exact[0].status == "skipped"
        assert "estimated cost" in exact[0].reason
        assert result.consensus.domain == dataset.universe()
        assert result.elapsed_seconds < 5.0

    def test_generous_budget_matches_best_single_algorithm(self, small_dataset):
        scheduler = PortfolioScheduler(
            budget_seconds=None,
            algorithms=["BioConsert", "Chanas", "BordaCount"],
            include_floor=False,
            seed=7,
        )
        result = scheduler.run(small_dataset)
        single_scores = {
            name: make_algorithm(name, seed=7).aggregate(small_dataset).score
            for name in ("BioConsert", "Chanas", "BordaCount")
        }
        assert result.score == min(single_scores.values())
        assert single_scores[result.algorithm] == result.score

    def test_members_are_fully_accounted(self, small_dataset):
        result = PortfolioScheduler(budget_seconds=None, seed=7).run(small_dataset)
        names = [m.algorithm for m in result.members]
        assert sorted(names) == sorted(set(names))  # each candidate once
        for member in result.members:
            assert member.status in (
                "finished",
                "cancelled",
                "skipped",
                "over-budget",
                "failed",
            )
        payload = result.describe()
        assert payload["algorithm"] == result.algorithm
        assert len(payload["members"]) == len(result.members)

    def test_determinism_for_fixed_seed(self, small_dataset):
        first = PortfolioScheduler(budget_seconds=None, seed=11).run(small_dataset)
        second = PortfolioScheduler(budget_seconds=None, seed=11).run(small_dataset)
        assert first.score == second.score
        assert first.algorithm == second.algorithm
        assert first.consensus == second.consensus


class TestOverrunningMembers:
    """A one-shot member cannot be interrupted, so its overrun result is
    already paid for: it must still compete for the portfolio minimum."""

    # On this dataset KwikSortMin (95) beats BordaCount (107).
    CANDIDATES = ["BordaCount", "KwikSortMin"]

    def _expected_score(self, dataset) -> int:
        return make_algorithm("KwikSortMin", seed=1).aggregate(dataset).score

    def _assert_overrun_member_wins(self, result, expected: int) -> None:
        member = next(m for m in result.members if m.algorithm == "KwikSortMin")
        assert member.status == "over-budget"
        assert member.score == expected
        assert result.algorithm == "KwikSortMin"
        assert result.score == expected
        borda = next(m for m in result.members if m.algorithm == "BordaCount")
        assert borda.status == "finished" and borda.score > expected

    def test_overrunning_member_with_best_score_wins(self, small_dataset, monkeypatch):
        def make_slow(name, *, seed=None):
            algorithm = make_algorithm(name, seed=seed)
            if name == "KwikSortMin":
                aggregate = algorithm._aggregate

                def slow_aggregate(rankings, weights):
                    time.sleep(0.2)
                    return aggregate(rankings, weights)

                algorithm._aggregate = slow_aggregate
            return algorithm

        monkeypatch.setattr("repro.service.portfolio.make_algorithm", make_slow)
        scheduler = PortfolioScheduler(
            budget_seconds=0.05, algorithms=self.CANDIDATES, include_floor=False, seed=1
        )
        result = scheduler.run(small_dataset)
        self._assert_overrun_member_wins(result, self._expected_score(small_dataset))

    def test_slow_fault_counts_as_member_time(self, small_dataset):
        injector = FaultInjector(
            rules=(
                FaultRule(
                    site="portfolio.member",
                    kind="slow",
                    match="KwikSortMin",
                    delay_seconds=0.2,
                ),
            )
        )
        scheduler = PortfolioScheduler(
            budget_seconds=0.05, algorithms=self.CANDIDATES, include_floor=False, seed=1
        )
        with injected(injector):
            result = scheduler.run(small_dataset)
        self._assert_overrun_member_wins(result, self._expected_score(small_dataset))
