"""Anytime-protocol semantics of the local-search family.

The contract (see :mod:`repro.algorithms.anytime`): every candidate of an
anytime stream carries its exact generalized Kemeny score, a
deadline-bounded run always returns a valid consensus, the best score is
monotone non-increasing across ``step()`` calls, and a search run to
completion matches the batch ``aggregate()`` result exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    ALGORITHM_FACTORIES,
    BioConsert,
    BordaCount,
    ChainedAggregator,
    Chanas,
    ChanasBoth,
    SimulatedAnnealing,
    run_anytime,
    supports_anytime,
)
from repro.core import PairwiseWeights, Ranking
from repro.core.kemeny import generalized_kemeny_score, generalized_kemeny_score_from_weights
from repro.generators import uniform_dataset

from oracles import BioConsertOracle, ChanasBothOracle, ChanasOracle

ANYTIME_FACTORIES = {
    "BioConsert": lambda: BioConsert(),
    "BioConsert(reference)": lambda: BioConsertOracle(),
    "Chanas": lambda: Chanas(),
    "ChanasBoth": lambda: ChanasBoth(),
    "Chained(Borda→BioConsert)": lambda: ChainedAggregator(BordaCount(), BioConsert()),
    "Chained(Borda→SA)": lambda: ChainedAggregator(
        BordaCount(), SimulatedAnnealing(seed=3, max_moves=2000)
    ),
    "SimulatedAnnealing": lambda: SimulatedAnnealing(seed=3, max_moves=2000),
}


@pytest.fixture(scope="module")
def dataset():
    return uniform_dataset(6, 12, 97)


class TestProtocol:
    def test_local_search_family_supports_anytime(self):
        for factory in ANYTIME_FACTORIES.values():
            assert supports_anytime(factory())

    def test_positional_algorithms_do_not(self):
        assert not supports_anytime(BordaCount())

    def test_run_anytime_rejects_unsupported(self, dataset):
        with pytest.raises(TypeError, match="anytime"):
            run_anytime(BordaCount(), dataset, 1.0)


@pytest.mark.parametrize("name", sorted(ANYTIME_FACTORIES))
class TestAnytimeSemantics:
    def test_score_monotone_non_increasing(self, name, dataset):
        controller = ANYTIME_FACTORIES[name]().begin_anytime(dataset)
        scores = []
        while controller.step():
            scores.append(controller.best_score)
        assert scores, "search yielded no candidate"
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_completed_search_matches_batch_aggregate(self, name, dataset):
        algorithm = ANYTIME_FACTORIES[name]()
        batch = algorithm.aggregate(dataset)
        controller = ANYTIME_FACTORIES[name]().begin_anytime(dataset)
        best = controller.run_to_completion()
        assert controller.best_score == batch.score
        assert generalized_kemeny_score(best, list(dataset.rankings)) == batch.score

    def test_expired_deadline_still_returns_valid_consensus(self, name, dataset):
        result = run_anytime(ANYTIME_FACTORIES[name](), dataset, 0.0)
        assert result.consensus.domain == dataset.universe()
        assert result.details["steps"] >= 1
        assert result.details["anytime"] is True
        assert result.score == generalized_kemeny_score(
            result.consensus, list(dataset.rankings)
        )

    def test_deadline_result_never_worse_than_more_budget(self, name, dataset):
        # More steps can only improve (or keep) the best score.
        tight = run_anytime(ANYTIME_FACTORIES[name](), dataset, 0.0)
        generous = run_anytime(ANYTIME_FACTORIES[name](), dataset, None)
        assert generous.score <= tight.score


class TestControllerBookkeeping:
    def test_finished_controller_steps_are_noops(self, dataset):
        controller = BioConsert().begin_anytime(dataset)
        controller.run_to_completion()
        assert controller.finished
        steps = controller.steps
        assert controller.step() is False
        assert controller.steps == steps

    def test_result_before_first_step_raises(self, dataset):
        controller = BioConsert().begin_anytime(dataset)
        with pytest.raises(RuntimeError, match="no candidate"):
            controller.result()

    def test_kernel_equivalence_of_anytime_trajectories(self, dataset):
        arrays = BioConsert().begin_anytime(dataset)
        reference = BioConsertOracle().begin_anytime(dataset)
        while True:
            advanced_arrays = arrays.step()
            advanced_reference = reference.step()
            assert advanced_arrays == advanced_reference
            assert arrays.best_score == reference.best_score
            if not advanced_arrays:
                break
        assert arrays.best_so_far() == reference.best_so_far()


# Every anytime algorithm of the registry, plus the scalar oracles.
STREAM_FACTORIES = {
    name: factory
    for name, factory in ALGORITHM_FACTORIES.items()
    if supports_anytime(factory(seed=0))
}
STREAM_FACTORIES.update(
    {
        "Chanas(oracle)": lambda seed=None: ChanasOracle(seed=seed),
        "ChanasBoth(oracle)": lambda seed=None: ChanasBothOracle(seed=seed),
        "BioConsert(oracle)": lambda seed=None: BioConsertOracle(seed=seed),
    }
)


def _rankings_with_ties(n: int, m: int, seed: int) -> list[Ranking]:
    rng = np.random.default_rng(seed)
    return [
        Ranking.from_positions(
            dict(enumerate(rng.integers(0, rng.integers(1, n + 1), size=n).tolist()))
        )
        for _ in range(m)
    ]


def _scored_stream(algorithm, rankings, weights, initial=None):
    """The stream's candidates, each checked against an independent score."""
    stream = list(algorithm._anytime_candidates(rankings, weights, initial=initial))
    assert stream, "anytime search yielded no candidate"
    for candidate, score in stream:
        assert score == generalized_kemeny_score_from_weights(candidate, weights)
    return stream


# The annealing schedule runs ~1.5k plateaus whatever the size: fewer,
# smaller examples keep those two streams to a few seconds.
ANNEALING_STREAMS = sorted(
    name for name in STREAM_FACTORIES if "SA" in name or "Annealing" in name
)
FAST_STREAMS = sorted(set(STREAM_FACTORIES) - set(ANNEALING_STREAMS))


def assert_stream_contract(name: str, n: int, m: int, seed: int) -> None:
    """Every yielded score is the candidate's generalized Kemeny score,
    cold and warm-started, and the drained cold stream's first best is
    ``aggregate()``'s consensus and score (BioConsert's lockstep batch
    kernel included)."""
    rankings = _rankings_with_ties(n, m, seed)
    weights = PairwiseWeights(rankings)
    factory = STREAM_FACTORIES[name]
    best, best_score = None, None
    for candidate, score in _scored_stream(factory(seed=seed), rankings, weights):
        if best_score is None or score < best_score:
            best, best_score = candidate, score
    result = factory(seed=seed).aggregate(rankings)
    assert result.consensus.buckets == best.buckets
    assert result.score == best_score

    initial = _rankings_with_ties(n, 1, seed + 1)[0]
    _scored_stream(factory(seed=seed), rankings, weights, initial=initial)


@pytest.mark.parametrize("name", FAST_STREAMS)
@given(
    n=st.integers(min_value=1, max_value=12),
    m=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_local_search_stream_contract(name, n, m, seed):
    assert_stream_contract(name, n, m, seed)


@pytest.mark.parametrize("name", ANNEALING_STREAMS)
@given(
    n=st.integers(min_value=1, max_value=8),
    m=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=4, deadline=None)
def test_annealing_stream_contract(name, n, m, seed):
    assert_stream_contract(name, n, m, seed)
