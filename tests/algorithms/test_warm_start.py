"""Warm-start (`initial=`) contract across the anytime family."""

from __future__ import annotations

import pytest

from repro.algorithms import (
    BioConsert,
    BordaCount,
    ChainedAggregator,
    Chanas,
    ChanasBoth,
    SimulatedAnnealing,
)
from repro.algorithms.anytime import run_anytime
from repro.core import Ranking
from repro.core.kemeny import generalized_kemeny_score_from_weights
from repro.datasets import Dataset
from repro.generators import uniform_dataset

from oracles import BioConsertOracle

ANYTIME_FAMILY = {
    "BioConsert": BioConsert(),
    "BioConsert-oracle": BioConsertOracle(),
    "Chanas": Chanas(),
    "ChanasBoth": ChanasBoth(),
    "SimulatedAnnealing": SimulatedAnnealing(seed=7),
    "Chained(BordaCount→BioConsert)": ChainedAggregator(BordaCount(), BioConsert()),
}


@pytest.fixture(scope="module")
def dataset():
    return uniform_dataset(6, 9, rng=41, name="warm")


@pytest.fixture(scope="module")
def perturbed(dataset):
    rankings = list(dataset.rankings)
    rankings[0] = rankings[-1]
    return Dataset(rankings, name="warm-perturbed")


@pytest.mark.parametrize(
    "algorithm", list(ANYTIME_FAMILY.values()), ids=list(ANYTIME_FAMILY)
)
class TestWarmStart:
    def test_warm_never_worse_than_cold(self, algorithm, dataset):
        cold = run_anytime(algorithm, dataset, None)
        warm = run_anytime(algorithm, dataset, None, initial=cold.consensus)
        assert warm.score <= cold.score
        assert warm.details["warm_start"] is True
        assert cold.details["warm_start"] is False

    def test_warm_never_worse_than_initial(self, algorithm, dataset, perturbed):
        """Repairing after a mutation can only improve on the stale consensus."""
        stale = run_anytime(algorithm, dataset, None).consensus
        warm = run_anytime(algorithm, perturbed, None, initial=stale)
        stale_score = generalized_kemeny_score_from_weights(
            stale, perturbed.pairwise_weights()
        )
        assert warm.score <= stale_score

    def test_first_step_yields_valid_consensus(self, algorithm, dataset):
        initial = BordaCount().aggregate(dataset).consensus
        controller = algorithm.begin_anytime(dataset, initial=initial)
        assert controller.step()
        best = controller.best_so_far()
        assert best is not None
        assert best.domain == dataset.universe()


class TestWarmStartSemantics:
    def test_bioconsert_warm_trajectory_runs_first(self, dataset):
        """The warm start is the first trajectory: one step scores it."""
        algorithm = BioConsert()
        initial = BordaCount().aggregate(dataset).consensus
        controller = algorithm.begin_anytime(dataset, initial=initial)
        controller.step()
        expected = generalized_kemeny_score_from_weights(
            initial, dataset.pairwise_weights()
        )
        assert controller.best_score == expected

    def test_chanas_breaks_ties_in_initial(self, dataset):
        tied = Ranking([sorted(dataset.universe())])  # everything tied
        warm = run_anytime(Chanas(), dataset, None, initial=tied)
        assert warm.consensus.is_permutation

    def test_run_anytime_budget_with_warm_start(self, dataset):
        initial = BordaCount().aggregate(dataset).consensus
        result = run_anytime(BioConsert(), dataset, 0.0, initial=initial)
        assert result.details["steps"] >= 1
        assert result.consensus is not None
