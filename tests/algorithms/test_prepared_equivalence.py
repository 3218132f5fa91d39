"""Prepared vs. unprepared equivalence, registry-wide, plus scalar oracles.

``RankAggregator.aggregate`` consumes a
:class:`~repro.core.prepared.PreparedDataset` (memoized, shareable) and the
positional / pivot / subset-DP algorithms run on dense kernels.  The
contract is *identical results*: for every registered algorithm, the three
entry paths — plain rankings (plan built on the spot), dataset (memoized
plan) and an explicitly shared plan — must return the same consensus,
score and diagnostics, and every dense kernel must follow its scalar
oracle (:mod:`oracles`) move for move on random tied datasets.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    AilonThreeHalves,
    BordaCount,
    CopelandMethod,
    ExactSubsetDP,
    KwikSort,
    MEDRank,
    PickAPerm,
    RepeatChoice,
)
from repro.algorithms.registry import available_algorithms, make_algorithm
from repro.core import Ranking, prepare_rankings
from repro.datasets import Dataset

from oracles import (
    AilonThreeHalvesOracle,
    BordaCountOracle,
    CopelandMethodOracle,
    ExactSubsetDPOracle,
    KwikSortOracle,
    MEDRankOracle,
    PickAPermOracle,
    RepeatChoiceOracle,
)

SEED = 20150731


def make_rankings(n: int, m: int, seed: int) -> list[Ranking]:
    """Random complete dataset with ties (mirrors the kernel-equivalence suite)."""
    rng = np.random.default_rng(seed)
    rankings = []
    for _ in range(m):
        if rng.random() < 0.25:
            order = rng.permutation(n)
            positions = {int(element): int(rank) for rank, element in enumerate(order)}
        else:
            buckets = rng.integers(0, rng.integers(1, n + 1), size=n)
            positions = dict(enumerate(buckets.tolist()))
        rankings.append(Ranking.from_positions(positions))
    return rankings


def _comparable(result):
    """The result fields that must be identical across entry paths."""
    details = {k: v for k, v in result.details.items() if k != "prepare_seconds"}
    return result.consensus, result.score, details


# --------------------------------------------------------------------------- #
# Registry-wide: prepared vs unprepared
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", available_algorithms())
@pytest.mark.parametrize("case", [(6, 4, 1), (9, 5, 2), (7, 3, 3)])
def test_prepared_paths_are_equivalent_registry_wide(name, case):
    n, m, seed = case
    rankings = make_rankings(n, m, seed)
    dataset = Dataset(rankings, name=f"prepared-eq-{n}-{m}-{seed}")

    unprepared = make_algorithm(name, seed=SEED).aggregate(list(rankings))
    via_dataset = make_algorithm(name, seed=SEED).aggregate(dataset)
    plan = prepare_rankings(rankings)
    via_plan = make_algorithm(name, seed=SEED).aggregate(rankings, prepared=plan)

    assert _comparable(via_dataset) == _comparable(unprepared)
    assert _comparable(via_plan) == _comparable(unprepared)
    # Every path reports the preparation share explicitly.
    for result in (unprepared, via_dataset, via_plan):
        assert result.details["prepare_seconds"] >= 0.0
        assert result.elapsed_seconds >= result.details["prepare_seconds"]


def test_foreign_plan_is_rejected():
    rankings = make_rankings(6, 4, 1)
    foreign = prepare_rankings(make_rankings(5, 4, 2))
    with pytest.raises(ValueError, match="does not describe"):
        BordaCount().aggregate(rankings, prepared=foreign)


# --------------------------------------------------------------------------- #
# Dense kernels vs their scalar oracles
# --------------------------------------------------------------------------- #
dataset_params = st.tuples(
    st.integers(min_value=2, max_value=40),   # n elements
    st.integers(min_value=1, max_value=12),   # m rankings
    st.integers(min_value=0, max_value=2**32 - 1),  # rng seed
)


def _pairs(params, arrays_factory, reference_factory):
    n, m, seed = params
    rankings = make_rankings(n, m, seed)
    return (
        arrays_factory().aggregate(rankings),
        reference_factory().aggregate(rankings),
    )


@given(dataset_params)
@settings(max_examples=25, deadline=None)
def test_borda_kernels_identical(params):
    arrays, reference = _pairs(
        params, lambda: BordaCount(), lambda: BordaCountOracle()
    )
    assert arrays.consensus.buckets == reference.consensus.buckets
    assert arrays.score == reference.score


@given(dataset_params)
@settings(max_examples=25, deadline=None)
def test_copeland_kernels_identical(params):
    arrays, reference = _pairs(
        params, lambda: CopelandMethod(), lambda: CopelandMethodOracle()
    )
    assert arrays.consensus.buckets == reference.consensus.buckets
    assert arrays.score == reference.score


@given(dataset_params, st.sampled_from([0.3, 0.5, 0.7, 1.0]))
@settings(max_examples=25, deadline=None)
def test_medrank_kernels_identical(params, threshold):
    arrays, reference = _pairs(
        params,
        lambda: MEDRank(threshold),
        lambda: MEDRankOracle(threshold),
    )
    assert arrays.consensus.buckets == reference.consensus.buckets
    assert arrays.score == reference.score


@given(dataset_params)
@settings(max_examples=20, deadline=None)
def test_repeat_choice_kernels_equal_per_seeded_run(params):
    n, m, seed = params
    rankings = make_rankings(n, m, seed)
    arrays = RepeatChoice(seed=SEED, num_repeats=3).aggregate(rankings)
    reference = RepeatChoiceOracle(seed=SEED, num_repeats=3).aggregate(rankings)
    # Same refinement keys → same bucket partition and order; the oracle's
    # within-bucket order follows set iteration, so compare the
    # (order-insensitive) rankings and the scores.
    assert arrays.consensus == reference.consensus
    assert arrays.score == reference.score


@given(dataset_params, st.booleans())
@settings(max_examples=20, deadline=None)
def test_kwiksort_kernels_follow_identical_trajectories(params, allow_ties):
    n, m, seed = params
    rankings = make_rankings(n, m, seed)
    arrays = KwikSort(seed=SEED, allow_ties=allow_ties, num_repeats=2).aggregate(
        rankings
    )
    reference = KwikSortOracle(
        seed=SEED, allow_ties=allow_ties, num_repeats=2
    ).aggregate(rankings)
    assert arrays.consensus.buckets == reference.consensus.buckets
    assert arrays.score == reference.score


@given(
    st.tuples(
        st.integers(min_value=2, max_value=9),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
)
@settings(max_examples=15, deadline=None)
def test_exact_dp_kernels_identical(params):
    n, m, seed = params
    rankings = make_rankings(n, m, seed)
    bitmask = ExactSubsetDP().aggregate(rankings)
    reference = ExactSubsetDPOracle().aggregate(rankings)
    # Bit-identical reconstruction: same bucket sequence, same tie-breaking.
    assert bitmask.consensus.buckets == reference.consensus.buckets
    assert bitmask.score == reference.score
    assert (
        bitmask.details["optimal_score"] == reference.details["optimal_score"]
    )
    assert bitmask.score == bitmask.details["optimal_score"]


def test_ailon_rounding_kernels_identical():
    pytest.importorskip("scipy")
    for seed in range(4):
        rankings = make_rankings(7, 4, seed)
        arrays = AilonThreeHalves(seed=SEED).aggregate(rankings)
        reference = AilonThreeHalvesOracle(seed=SEED).aggregate(rankings)
        assert arrays.consensus.buckets == reference.consensus.buckets
        assert arrays.score == reference.score


@given(dataset_params)
@settings(max_examples=25, deadline=None)
def test_pick_a_perm_kernels_identical(params):
    arrays, reference = _pairs(params, lambda: PickAPerm(), lambda: PickAPermOracle())
    assert arrays.consensus.buckets == reference.consensus.buckets
    assert arrays.score == reference.score
    assert arrays.details["chosen_input_index"] == reference.details["chosen_input_index"]
