"""Micro-benchmarks of the core kernels shared by every algorithm.

These are not paper artefacts; they track the primitives whose cost
dominates every experiment of the harness:

* the generalized Kendall-τ distance (vectorised vs the scalar oracle of
  ``tests/oracles``),
* the pairwise weight matrices (O(m·n²) construction),
* the weight-based generalized Kemeny scorer,
* one aggregation run of the flagship algorithms at the Figure 6 size
  (m = 7, n = 35).

Regressions here translate directly into slower table/figure regeneration.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import BioConsert, BordaCount, FaginSmall, KwikSort, MEDRank
from repro.core import (
    PairwiseWeights,
    generalized_kemeny_score_from_weights,
    generalized_kendall_tau_distance,
)
from repro.generators import sample_uniform_ranking, uniform_dataset

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import generalized_kendall_tau_distance_reference  # noqa: E402

_M, _N = 7, 35


@pytest.fixture(scope="module")
def figure6_dataset():
    return uniform_dataset(_M, _N, rng=123, name="kernel-bench")


@pytest.fixture(scope="module")
def figure6_weights(figure6_dataset):
    return PairwiseWeights(list(figure6_dataset.rankings))


def bench_generalized_distance_vectorized(benchmark, figure6_dataset):
    r, s = figure6_dataset.rankings[0], figure6_dataset.rankings[1]
    benchmark(generalized_kendall_tau_distance, r, s)


def bench_generalized_distance_reference(benchmark, figure6_dataset):
    r, s = figure6_dataset.rankings[0], figure6_dataset.rankings[1]
    benchmark(generalized_kendall_tau_distance_reference, r, s)


def bench_pairwise_weights_construction(benchmark, figure6_dataset):
    benchmark(PairwiseWeights, list(figure6_dataset.rankings))


def bench_weight_based_scorer(benchmark, figure6_dataset, figure6_weights):
    candidate = figure6_dataset.rankings[0]
    benchmark(generalized_kemeny_score_from_weights, candidate, figure6_weights)


def bench_uniform_sampler(benchmark):
    rng = np.random.default_rng(0)
    benchmark(sample_uniform_ranking, list(range(_N)), rng)


@pytest.mark.parametrize(
    "factory",
    [BordaCount, MEDRank, FaginSmall, lambda: KwikSort(seed=0), BioConsert],
    ids=["BordaCount", "MEDRank", "FaginSmall", "KwikSort", "BioConsert"],
)
def bench_algorithm_at_figure6_size(benchmark, figure6_dataset, factory):
    algorithm = factory()
    benchmark.pedantic(
        algorithm.aggregate, args=(figure6_dataset,), rounds=3, iterations=1
    )
