"""Property-based conformance suite over every registered scenario.

Invariants checked for each scenario's datasets (seeded loops over two base
seeds, plus hypothesis sweeps for the samplers):

* the BioConsert consensus score never exceeds ``trivial_upper_bound``
  (the algorithm starts from every input ranking and only accepts strictly
  improving moves) — for BioConsert and its scalar oracle, which must also
  agree with each other exactly;
* aggregation is idempotent on identical-input datasets: the consensus is
  the common input ranking, at score zero;
* the generalized Kemeny score is invariant under element relabeling.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import BioConsert
from repro.core import Ranking
from repro.core.kemeny import generalized_kemeny_score, trivial_upper_bound
from repro.datasets import Dataset
from repro.generators import sample_mallows_ties_ranking
from repro.workloads import get_scenario, scenario_names

from oracles import BioConsertOracle

BASE_SEEDS = (2015, 7)
KERNELS = {"reference": BioConsertOracle, "arrays": BioConsert}


def _scenario_datasets(name: str, seed: int) -> list[Dataset]:
    return get_scenario(name).build("smoke", base_seed=seed, num_datasets=1)


@pytest.mark.parametrize("kernel", list(KERNELS))
@pytest.mark.parametrize("name", scenario_names())
def test_consensus_score_within_trivial_upper_bound(name, kernel):
    for seed in BASE_SEEDS:
        for dataset in _scenario_datasets(name, seed):
            bound = trivial_upper_bound(dataset.rankings)
            result = KERNELS[kernel](seed=seed).aggregate(dataset)
            assert result.score <= bound, (name, kernel, seed)
            # The reported score is the true generalized Kemeny score.
            assert result.score == generalized_kemeny_score(
                result.consensus, dataset.rankings
            )


@pytest.mark.parametrize("name", scenario_names())
def test_kernels_agree_on_every_scenario(name):
    for seed in BASE_SEEDS:
        for dataset in _scenario_datasets(name, seed):
            reference = BioConsertOracle(seed=seed).aggregate(dataset)
            arrays = BioConsert(seed=seed).aggregate(dataset)
            assert reference.score == arrays.score, (name, seed)
            assert reference.consensus.canonical() == arrays.consensus.canonical()


@pytest.mark.parametrize("kernel", list(KERNELS))
@pytest.mark.parametrize("name", scenario_names())
def test_idempotence_on_identical_inputs(name, kernel):
    """Aggregating m copies of one ranking returns that ranking at score 0."""
    for seed in BASE_SEEDS:
        dataset = _scenario_datasets(name, seed)[0]
        ranking = dataset.rankings[0]
        clones = Dataset([ranking] * len(dataset), name=f"{name}-clones")
        assert trivial_upper_bound(clones.rankings) == 0
        result = KERNELS[kernel](seed=seed).aggregate(clones)
        assert result.score == 0, (name, kernel)
        assert result.consensus.canonical() == ranking.canonical()


@pytest.mark.parametrize("name", scenario_names())
def test_kemeny_score_invariant_under_relabeling(name):
    """Relabeling elements never changes the generalized Kemeny score."""
    for seed in BASE_SEEDS:
        dataset = _scenario_datasets(name, seed)[0]
        elements = sorted(dataset.universe(), key=repr)
        shuffled = list(elements)
        np.random.default_rng(seed).shuffle(shuffled)
        mapping = {old: f"relabel_{new}" for old, new in zip(elements, shuffled)}

        def relabel(ranking: Ranking) -> Ranking:
            return Ranking(
                [[mapping[element] for element in bucket] for bucket in ranking.buckets]
            )

        relabeled = [relabel(ranking) for ranking in dataset.rankings]
        candidate = BioConsert(seed=seed).consensus(dataset)
        original_score = generalized_kemeny_score(candidate, dataset.rankings)
        relabeled_score = generalized_kemeny_score(relabel(candidate), relabeled)
        assert original_score == relabeled_score, name
        assert trivial_upper_bound(dataset.rankings) == trivial_upper_bound(relabeled)


@settings(max_examples=30, deadline=None)
@given(
    phi=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_mallows_ties_always_produces_valid_rankings(phi, n, seed):
    """Any (phi, n, seed): the sample is a valid ranking over the full domain."""
    reference = Ranking.from_permutation(list(range(n)))
    sample = sample_mallows_ties_ranking(
        reference, phi, np.random.default_rng(seed)
    )
    assert sample.domain == reference.domain
    assert all(len(bucket) >= 1 for bucket in sample.buckets)
    assert sum(len(bucket) for bucket in sample.buckets) == n
