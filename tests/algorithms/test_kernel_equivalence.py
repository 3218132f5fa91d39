"""Property-based equivalence of the array kernels and the scalar oracles.

The hot paths — ``PairwiseWeights``, ``pairwise_distance_matrix``, the
BioConsert (every start one lane of a lockstep bucket-id array) and Chanas
local searches — run on dense bucket-id vectors and batched tensor ops.  The contract is *identical outputs*: they must follow
the same move selection and tie-breaking as the scalar reference
implementations in :mod:`oracles` on any dataset.  This suite drives both
over random datasets with ties (n up to ~60 elements, m up to ~15
rankings) and asserts equality.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import BioConsert, BordaCount, Chanas, ChanasBoth
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


def comparable_details(result) -> dict:
    """A result's details without the wall-clock preparation timing."""
    return {k: v for k, v in result.details.items() if k != "prepare_seconds"}


def assert_bioconsert_matches_oracle(rankings, **options) -> None:
    """The lockstep lanes and the per-start oracle give the same result."""
    result_lanes = BioConsert(**options).aggregate(rankings)
    result_reference = BioConsertOracle(**options).aggregate(rankings)
    # Byte-identical, not merely equal: same bucket sequence AND the same
    # element order inside every bucket (what the CLI prints / IO writes).
    assert result_lanes.consensus.buckets == result_reference.consensus.buckets
    assert result_lanes.score == result_reference.score
    assert comparable_details(result_lanes) == comparable_details(result_reference)


def random_ranking(n: int, seed: int) -> Ranking:
    """A random ranking with ties over the elements 0 .. n-1."""
    rng = np.random.default_rng(seed)
    buckets = rng.integers(0, rng.integers(1, n + 1), size=n)
    return Ranking.from_positions(dict(enumerate(buckets.tolist())))


@given(dataset_params)
@settings(max_examples=12, deadline=None)
def test_bioconsert_kernels_follow_identical_trajectories(params):
    assert_bioconsert_matches_oracle(make_dataset(params))


@given(dataset_params)
@settings(max_examples=12, deadline=None)
def test_bioconsert_kernels_agree_with_borda_start(params):
    assert_bioconsert_matches_oracle(make_dataset(params), include_borda_start=True)


@given(dataset_params, st.sampled_from([0, 1, 2, 3]))
@settings(max_examples=25, deadline=None)
def test_bioconsert_sweep_cap_binds_per_lane(params, max_sweeps):
    """Every lane stops at its own ``max_sweeps``, whatever the others do."""
    rankings = make_dataset(params)
    assert_bioconsert_matches_oracle(rankings, max_sweeps=max_sweeps)
    details = BioConsert(max_sweeps=max_sweeps).aggregate(rankings).details
    assert details["sweeps"] <= max_sweeps * details["starting_points"]


@given(dataset_params, st.integers(min_value=2, max_value=30))
@settings(max_examples=15, deadline=None)
def test_bioconsert_lanes_with_duplicate_rankings(params, copies):
    """Repeated inputs are one start each (dict order), as in the oracle."""
    distinct = make_dataset(params)
    rng = np.random.default_rng(params[2])
    rankings = [distinct[int(i)] for i in rng.integers(0, len(distinct), size=copies)]
    assert_bioconsert_matches_oracle(rankings)
    result = BioConsert().aggregate(rankings)
    assert result.details["starting_points"] == len(set(rankings))


@given(dataset_params)
@settings(max_examples=12, deadline=None)
def test_bioconsert_borda_start_equal_to_an_input(params):
    """The Borda start is a lane of its own even when an input equals it."""
    n, m, seed = params
    others = make_dataset((n, min(m, 3), seed))
    # A tie-free ranking repeated often enough dictates the Borda order.
    leader = Ranking([[int(e)] for e in np.random.default_rng(seed).permutation(n)])
    rankings = [leader] * (len(others) * n + 1) + others
    assert BordaCount().consensus(rankings) in rankings
    assert_bioconsert_matches_oracle(rankings, include_borda_start=True)
    result = BioConsert(include_borda_start=True).aggregate(rankings)
    assert result.details["starting_points"] == len(set(rankings)) + 1


@given(dataset_params)
@settings(max_examples=15, deadline=None)
def test_bioconsert_score_ties_go_to_the_earliest_start(params):
    """Mirrored datasets (every ranking with its reverse) have local optima
    that tie on score; the earliest start's optimum must win."""
    n, m, seed = params
    base = make_dataset((n, min(m, 4), seed))
    rankings = []
    for ranking in base:
        rankings += [ranking, Ranking(list(reversed(ranking.buckets)))]
    assert_bioconsert_matches_oracle(rankings)
    weights = PairwiseWeights(rankings)
    optima = [
        BioConsertOracle().refine_from(start, weights) for start in dict.fromkeys(rankings)
    ]
    scores = [generalized_kemeny_score(optimum, rankings) for optimum in optima]
    earliest = optima[scores.index(min(scores))]
    assert BioConsert().aggregate(rankings).consensus.buckets == earliest.buckets


@given(dataset_params, st.booleans(), st.sampled_from([1, 2, 200]))
@settings(max_examples=15, deadline=None)
def test_bioconsert_anytime_stream_matches_oracle(params, warm, max_sweeps):
    """The anytime stream runs one start at a time, one sweep per step, in
    the oracle's order: the same candidates, step for step, cold and with
    an ``initial`` warm start, and the same details afterwards."""
    rankings = make_dataset(params)
    weights = PairwiseWeights(rankings)
    initial = random_ranking(params[0], params[2] + 1) if warm else None
    library = BioConsert(max_sweeps=max_sweeps)
    reference = BioConsertOracle(max_sweeps=max_sweeps)
    stream = library._anytime_candidates(rankings, weights, initial=initial)
    stream_reference = reference._anytime_candidates(rankings, weights, initial=initial)
    assert [c.buckets for c in stream] == [c.buckets for c in stream_reference]
    assert library._last_details() == reference._last_details()

    kwargs = {} if initial is None else {"initial": initial}
    controllers = [
        algorithm(max_sweeps=max_sweeps).begin_anytime(rankings, weights, **kwargs)
        for algorithm in (BioConsert, BioConsertOracle)
    ]
    while True:
        advanced = [controller.step() for controller in controllers]
        assert advanced[0] == advanced[1]
        assert controllers[0].best_score == controllers[1].best_score
        assert controllers[0].best_so_far().buckets == controllers[1].best_so_far().buckets
        if not advanced[0]:
            break
    results = [controller.result() for controller in controllers]
    assert results[0].details == results[1].details


@given(dataset_params, st.sampled_from([1, 2, 200]))
@settings(max_examples=15, deadline=None)
def test_bioconsert_refinement_matches_oracle(params, max_sweeps):
    """``anytime_refine`` yields the oracle's per-sweep candidates and
    ``refine_from`` returns its last one, with the same sweep count."""
    rankings = make_dataset(params)
    weights = PairwiseWeights(rankings)
    start = random_ranking(params[0], params[2] + 2)
    library = BioConsert(max_sweeps=max_sweeps)
    reference = BioConsertOracle(max_sweeps=max_sweeps)
    candidates = [c.buckets for c in library.anytime_refine(start, weights)]
    assert candidates == [c.buckets for c in reference.anytime_refine(start, weights)]
    assert library._sweeps_used == reference._sweeps_used == len(candidates) - 1
    refined = library.refine_from(start, weights)
    assert refined.buckets == reference.refine_from(start, weights).buckets
    assert refined.buckets == candidates[-1]
    assert library._sweeps_used == reference._sweeps_used


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
