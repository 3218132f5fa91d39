"""Property-based equivalence of the array kernels and the scalar oracles.

The hot paths — ``PairwiseWeights``, ``pairwise_distance_matrix``, the
BioConsert and Chanas local searches — run on dense bucket-id vectors and
batched tensor ops.  The contract is *identical outputs*: they must follow
the same move selection and tie-breaking as the scalar reference
implementations in :mod:`oracles` on any dataset.  This suite drives both
over random datasets with ties (n up to ~60 elements, m up to ~15
rankings) and asserts equality.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import BioConsert, Chanas, ChanasBoth
from repro.core import (
    PairwiseWeights,
    Ranking,
    generalized_kemeny_score,
    generalized_kendall_tau_distance,
    pairwise_distance_matrix,
)

from oracles import (
    BioConsertOracle,
    ChanasBothOracle,
    ChanasOracle,
    generalized_kendall_tau_distance_reference,
    pairwise_distance_matrix_reference,
)

# Small sizes shrink well; the dedicated @settings below push to the
# n ≈ 60 / m ≈ 15 region with fewer examples to keep the suite fast.
dataset_params = st.tuples(
    st.integers(min_value=2, max_value=60),   # n elements
    st.integers(min_value=1, max_value=15),   # m rankings
    st.integers(min_value=0, max_value=2**32 - 1),  # rng seed
)


def make_dataset(params: tuple[int, int, int]) -> list[Ranking]:
    """Random complete dataset with ties from drawn (n, m, seed)."""
    n, m, seed = params
    rng = np.random.default_rng(seed)
    rankings = []
    for _ in range(m):
        if rng.random() < 0.25:  # mix in tie-free permutations
            order = rng.permutation(n)
            positions = {int(element): int(rank) for rank, element in enumerate(order)}
        else:
            buckets = rng.integers(0, rng.integers(1, n + 1), size=n)
            positions = dict(enumerate(buckets.tolist()))
        rankings.append(Ranking.from_positions(positions))
    return rankings


def naive_pairwise_weights(rankings: list[Ranking]) -> tuple[list, np.ndarray, np.ndarray]:
    """Per-element reimplementation of the seed PairwiseWeights build."""
    elements = sorted(rankings[0].domain, key=lambda e: (type(e).__name__, repr(e)))
    n = len(elements)
    before = np.zeros((n, n), dtype=np.int64)
    tied = np.zeros((n, n), dtype=np.int64)
    for ranking in rankings:
        positions = np.fromiter(
            (ranking.position_of(element) for element in elements),
            dtype=np.int64,
            count=n,
        )
        before += positions[:, None] < positions[None, :]
        tied += positions[:, None] == positions[None, :]
    np.fill_diagonal(tied, 0)
    return elements, before, tied


@given(dataset_params)
@settings(max_examples=40, deadline=None)
def test_pairwise_weights_match_naive_build(params):
    rankings = make_dataset(params)
    weights = PairwiseWeights(rankings)
    elements, before, tied = naive_pairwise_weights(rankings)
    assert weights.elements == elements
    assert (weights.before_matrix == before).all()
    assert (weights.tied_matrix == tied).all()


@given(dataset_params)
@settings(max_examples=40, deadline=None)
def test_pairwise_distance_matrix_matches_reference(params):
    rankings = make_dataset(params)
    assert (
        pairwise_distance_matrix(rankings)
        == pairwise_distance_matrix_reference(rankings)
    ).all()


@given(dataset_params)
@settings(max_examples=40, deadline=None)
def test_single_pair_distance_matches_reference(params):
    rankings = make_dataset(params)
    r, s = rankings[0], rankings[-1]
    assert generalized_kendall_tau_distance(
        r, s
    ) == generalized_kendall_tau_distance_reference(r, s)


@given(dataset_params)
@settings(max_examples=25, deadline=None)
def test_batched_kemeny_score_matches_per_pair_sum(params):
    rankings = make_dataset(params)
    candidate = rankings[0]
    per_pair = sum(
        generalized_kendall_tau_distance_reference(candidate, s) for s in rankings
    )
    assert generalized_kemeny_score(candidate, rankings) == per_pair


@given(dataset_params)
@settings(max_examples=12, deadline=None)
def test_bioconsert_kernels_follow_identical_trajectories(params):
    rankings = make_dataset(params)
    arrays = BioConsert()
    reference = BioConsertOracle()
    result_arrays = arrays.aggregate(rankings)
    result_reference = reference.aggregate(rankings)
    # Byte-identical, not merely equal: same bucket sequence AND the same
    # element order inside every bucket (what the CLI prints / IO writes).
    assert result_arrays.consensus.buckets == result_reference.consensus.buckets
    assert result_arrays.score == result_reference.score
    # details match except the wall-clock preparation timing.
    details_arrays = {k: v for k, v in result_arrays.details.items() if k != "prepare_seconds"}
    details_reference = {
        k: v for k, v in result_reference.details.items() if k != "prepare_seconds"
    }
    assert details_arrays == details_reference


@given(dataset_params)
@settings(max_examples=12, deadline=None)
def test_bioconsert_kernels_agree_with_borda_start(params):
    rankings = make_dataset(params)
    result_arrays = BioConsert(include_borda_start=True).aggregate(rankings)
    result_reference = BioConsertOracle(include_borda_start=True).aggregate(rankings)
    assert result_arrays.consensus == result_reference.consensus
    assert result_arrays.score == result_reference.score


@given(dataset_params)
@settings(max_examples=15, deadline=None)
def test_chanas_kernels_follow_identical_trajectories(params):
    rankings = make_dataset(params)
    result_arrays = Chanas().aggregate(rankings)
    result_reference = ChanasOracle().aggregate(rankings)
    assert result_arrays.consensus == result_reference.consensus
    assert result_arrays.score == result_reference.score


@given(dataset_params)
@settings(max_examples=8, deadline=None)
def test_chanas_both_kernels_follow_identical_trajectories(params):
    rankings = make_dataset(params)
    result_arrays = ChanasBoth().aggregate(rankings)
    result_reference = ChanasBothOracle().aggregate(rankings)
    assert result_arrays.consensus == result_reference.consensus
    assert result_arrays.score == result_reference.score
