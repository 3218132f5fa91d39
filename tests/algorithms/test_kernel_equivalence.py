"""Property-based equivalence of the array kernels and the scalar oracles.

The hot paths — ``PairwiseWeights``, ``pairwise_distance_matrix``, the
BioConsert (every start one lane of a lockstep bucket-id array) and Chanas
local searches — run on dense bucket-id vectors and batched tensor ops.  The contract is *identical outputs*: they must follow
the same move selection and tie-breaking as the scalar reference
implementations in :mod:`oracles` on any dataset.  This suite drives both
over random datasets with ties (n up to ~60 elements, m up to ~15
rankings) and asserts equality.  The Chanas anytime streams, cold and
warm-started, are compared candidate by candidate up to n ≈ 70, across the
sort pass's scan blocks, and a live session's Chanas repair against the
oracle's warm-started run.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import BioConsert, BordaCount, Chanas, ChanasBoth
from repro.algorithms.anytime import run_anytime
from repro.core import (
    LiveDataset,
    PairwiseWeights,
    Ranking,
    format_ranking,
    generalized_kemeny_score,
    generalized_kendall_tau_distance,
    pairwise_distance_matrix,
)
from repro.service import LiveAggregationSession

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
    assert [(c.buckets, s) for c, s in stream] == [(c.buckets, s) for c, s in stream_reference]
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
    candidates = [(c.buckets, s) for c, s in library.anytime_refine(start, weights)]
    assert candidates == [(c.buckets, s) for c, s in reference.anytime_refine(start, weights)]
    assert library._sweeps_used == reference._sweeps_used == len(candidates) - 1
    refined = library.refine_from(start, weights)
    assert refined.buckets == reference.refine_from(start, weights).buckets
    assert refined.buckets == candidates[-1][0]
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


# Chanas streams: sizes up to ~70 cross the sort pass's 32-position scan
# blocks and their remainders (and include n = 1 and 2).
chanas_params = st.tuples(
    st.integers(min_value=1, max_value=70),   # n elements
    st.integers(min_value=1, max_value=12),   # m rankings
    st.integers(min_value=0, max_value=2**32 - 1),  # rng seed
)
# Wall-clock limit of one stream comparison; the sizes above finish in
# well under a second.
_STREAM_SECONDS = 30


@contextmanager
def time_limit(seconds: float):
    """Raise ``TimeoutError`` in the body after ``seconds``: a sort pass
    whose gap-cost table drifts from its permutation can keep finding
    "improving" moves forever, and that must fail, not hang."""

    def expire(signum, frame):
        raise TimeoutError(f"no fixpoint within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def assert_chanas_stream_matches_oracle(algorithm, oracle, rankings, initial=None) -> None:
    """Same anytime candidates, step for step, and the same final result."""
    with time_limit(_STREAM_SECONDS):
        weights = PairwiseWeights(rankings)
        stream = algorithm()._anytime_candidates(rankings, weights, initial=initial)
        stream_reference = oracle()._anytime_candidates(rankings, weights, initial=initial)
        assert [(c.buckets, s) for c, s in stream] == [
            (c.buckets, s) for c, s in stream_reference
        ]

        kwargs = {} if initial is None else {"initial": initial}
        controllers = [
            kind().begin_anytime(rankings, weights, **kwargs) for kind in (algorithm, oracle)
        ]
        while True:
            advanced = [controller.step() for controller in controllers]
            assert advanced[0] == advanced[1]
            assert controllers[0].best_score == controllers[1].best_score
            assert controllers[0].best_so_far().buckets == controllers[1].best_so_far().buckets
            if not advanced[0]:
                break
        results = [kind().aggregate(rankings) for kind in (algorithm, oracle)]
        assert results[0].consensus.buckets == results[1].consensus.buckets
        assert results[0].score == results[1].score


def mirrored(rankings: list[Ranking]) -> list[Ranking]:
    """Every ranking and its reverse, after one extra copy of the first.

    The mirrored pairs make every pair cost the same both ways; the extra
    ranking breaks some of those ties, so the gap costs tie widely and the
    earliest cheapest gap must win."""
    result = [rankings[0]]
    for ranking in rankings:
        result += [ranking, Ranking(list(reversed(ranking.buckets)))]
    return result


@pytest.mark.parametrize("algorithm, oracle", [(Chanas, ChanasOracle), (ChanasBoth, ChanasBothOracle)])
@pytest.mark.parametrize("n", [1, 2])
def test_chanas_streams_on_one_and_two_elements(algorithm, oracle, n):
    rankings = [Ranking([[0], [1]][:n]), Ranking([[1], [0]][2 - n :])]
    assert_chanas_stream_matches_oracle(algorithm, oracle, rankings)
    assert_chanas_stream_matches_oracle(algorithm, oracle, rankings, rankings[1])


@pytest.mark.parametrize("algorithm, oracle", [(Chanas, ChanasOracle), (ChanasBoth, ChanasBothOracle)])
@pytest.mark.parametrize("n", [5, 33, 70])
def test_chanas_streams_on_identical_and_all_tied_inputs(algorithm, oracle, n):
    """Identical inputs and all-tied inputs (every gap costs the same)."""
    permutation = Ranking([[int(e)] for e in np.random.default_rng(n).permutation(n)])
    all_tied = Ranking([list(range(n))])
    warm = random_ranking(n, n)
    for rankings in ([permutation] * 3, [all_tied] * 2, [all_tied, permutation]):
        assert_chanas_stream_matches_oracle(algorithm, oracle, rankings)
        assert_chanas_stream_matches_oracle(algorithm, oracle, rankings, warm)


@pytest.mark.parametrize("n", [31, 32, 33, 64, 65, 70])
def test_chanas_streams_across_scan_blocks(n):
    """Block edges and remainders, cold and warm, with and without the
    widespread cost ties of a mirrored dataset."""
    rankings = make_dataset((n, 5, n))
    warm = random_ranking(n, n + 1)
    for dataset in (rankings, mirrored(rankings)):
        assert_chanas_stream_matches_oracle(Chanas, ChanasOracle, dataset)
        assert_chanas_stream_matches_oracle(Chanas, ChanasOracle, dataset, warm)
    assert_chanas_stream_matches_oracle(ChanasBoth, ChanasBothOracle, rankings[:3], warm)


@pytest.mark.parametrize("seed", [0, 1])
def test_live_chanas_repair_matches_oracle_warm_run(seed):
    """A live session's warm repair after an update is the oracle's
    warm-started completed run on the same snapshot."""
    rankings = make_dataset((66, 9, seed))
    session = LiveAggregationSession(LiveDataset(rankings, name="chanas-live"), algorithm="Chanas")
    session.repair()
    previous = session.consensus
    replacement = format_ranking(random_ranking(66, seed + 10))
    session.mutate({"op": "update", "index": 2, "ranking": replacement})
    with time_limit(_STREAM_SECONDS):
        report = session.repair()
        expected = run_anytime(ChanasOracle(), session.dataset.snapshot(), None, initial=previous)
    assert report.warm_start
    assert report.consensus.buckets == expected.consensus.buckets
    assert report.score == expected.score
    assert report.steps == expected.details["steps"]


@given(chanas_params, st.booleans())
@settings(max_examples=25, deadline=None)
def test_chanas_anytime_stream_matches_oracle(params, warm):
    """Cold and warm-started (``initial=``) Chanas streams equal the
    element-by-element oracle's, candidate for candidate."""
    rankings = make_dataset(params)
    initial = random_ranking(params[0], params[2] + 1) if warm else None
    assert_chanas_stream_matches_oracle(Chanas, ChanasOracle, rankings, initial)


@given(chanas_params, st.booleans())
@settings(max_examples=10, deadline=None)
def test_chanas_both_anytime_stream_matches_oracle(params, warm):
    """ChanasBoth runs every start on the same sort pass: its stream equals
    the oracle's, cold and warm-started."""
    n, m, seed = params
    rankings = make_dataset((n, min(m, 6), seed))
    initial = random_ranking(n, seed + 1) if warm else None
    assert_chanas_stream_matches_oracle(ChanasBoth, ChanasBothOracle, rankings, initial)


@given(chanas_params, st.booleans())
@settings(max_examples=20, deadline=None)
def test_chanas_cost_ties_go_to_the_first_minimum(params, warm):
    """On mirrored datasets the gap costs tie widely; the stream still
    equals the oracle's, whose ``argmin`` takes the first minimum."""
    n, m, seed = params
    rankings = mirrored(make_dataset((n, min(m, 4), seed)))
    initial = random_ranking(n, seed + 3) if warm else None
    assert_chanas_stream_matches_oracle(Chanas, ChanasOracle, rankings, initial)
