"""Tests for the exact solvers: the LPB integer program and the subset DP oracle."""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    BioConsert,
    BordaCount,
    ExactAlgorithm,
    ExactSubsetDP,
    KwikSort,
    build_lpb_program,
)
from repro.algorithms import exact_dp
from repro.core import (
    AlgorithmNotApplicableError,
    PairwiseWeights,
    Ranking,
    generalized_kemeny_score,
)
from repro.experiments.config import AdaptiveExact
from repro.generators import uniform_dataset

from oracles import ExactSubsetDPOracle, ExactSubsetDPStateLoopOracle


class TestExactSubsetDP:
    def test_paper_example(self, paper_example_rankings, paper_example_optimal):
        result = ExactSubsetDP().aggregate(paper_example_rankings)
        assert result.score == 5
        assert result.consensus == paper_example_optimal

    def test_permutation_example_allows_ties_but_finds_4(self, permutation_example_rankings):
        """For permutation inputs the ties-aware optimum equals the
        permutation optimum (Section 4: the optimal consensus of a set of
        permutations has only singleton buckets)."""
        result = ExactSubsetDP().aggregate(permutation_example_rankings)
        assert result.score == 4
        assert result.consensus.is_permutation

    def test_identical_inputs(self):
        ranking = Ranking([["A"], ["B", "C"]])
        result = ExactSubsetDP().aggregate([ranking, ranking])
        assert result.score == 0
        assert result.consensus == ranking

    def test_refuses_large_instances(self):
        dataset = uniform_dataset(3, 20, rng=0)
        with pytest.raises(ValueError):
            ExactSubsetDP().aggregate(dataset)

    def test_single_element(self):
        assert ExactSubsetDP().consensus([Ranking([["A"]])]) == Ranking([["A"]])

    def test_details_record_score(self, paper_example_rankings):
        algorithm = ExactSubsetDP()
        result = algorithm.aggregate(paper_example_rankings)
        assert result.details["optimal_score"] == 5

    @pytest.mark.parametrize(
        "max_elements", [True, False, 2.5, 7.0, -1, "7", None, np.int64(7)]
    )
    def test_rejects_invalid_max_elements(self, max_elements):
        with pytest.raises(ValueError, match="max_elements"):
            ExactSubsetDP(max_elements=max_elements)
        with pytest.raises(ValueError, match="max_elements"):
            AdaptiveExact(dp_max_elements=max_elements)

    @pytest.mark.parametrize("max_elements", [0, 1, 16])
    def test_accepts_int_max_elements(self, max_elements):
        algorithm = ExactSubsetDP(max_elements=max_elements)
        dataset = uniform_dataset(3, max_elements + 1, rng=0)
        with pytest.raises(AlgorithmNotApplicableError, match=f"at most {max_elements} "):
            algorithm.aggregate(dataset)

    def test_n16_ceiling_fits_in_memory(self):
        """At the default ceiling (n = 16) the level pass stays within a
        bounded peak and still returns a consensus achieving its score."""
        rankings = list(uniform_dataset(10, 16, rng=16).rankings)
        tracemalloc.start()
        try:
            result = ExactSubsetDP().aggregate(rankings)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 2**20
        assert result.score == generalized_kemeny_score(result.consensus, rankings)
        assert result.score == result.details["optimal_score"]
        for candidate in rankings:
            assert result.score <= generalized_kemeny_score(candidate, rankings)
        assert result.score <= BioConsert().aggregate(rankings).score


class TestLPBProgram:
    def test_program_dimensions(self, paper_example_rankings):
        weights = PairwiseWeights(paper_example_rankings)
        program = build_lpb_program(weights)
        n = weights.num_elements
        num_pairs = n * (n - 1) // 2
        assert program.num_variables == 3 * num_pairs
        assert program.equality.shape == (num_pairs, program.num_variables)
        # Constraint (2): n(n-1)(n-2) ordered triples; constraint (3): one per
        # middle element and unordered extreme pair.
        expected_ineq = n * (n - 1) * (n - 2) + n * ((n - 1) * (n - 2) // 2)
        assert program.inequality.shape[0] == expected_ineq

    def test_objective_matches_pair_costs(self, paper_example_rankings):
        weights = PairwiseWeights(paper_example_rankings)
        program = build_lpb_program(weights)
        elements = weights.elements
        for (i, j), position in program.pair_index.items():
            base = 3 * position
            a, b = elements[i], elements[j]
            assert program.objective[base + 0] == weights.pair_cost(a, b, "before")
            assert program.objective[base + 1] == weights.pair_cost(a, b, "after")
            assert program.objective[base + 2] == weights.pair_cost(a, b, "tied")


class TestExactAlgorithm:
    def test_paper_example(self, paper_example_rankings, paper_example_optimal):
        result = ExactAlgorithm().aggregate(paper_example_rankings)
        assert result.score == 5
        assert result.consensus == paper_example_optimal
        assert result.details["proved_optimal"] is True

    def test_permutation_example(self, permutation_example_rankings):
        result = ExactAlgorithm().aggregate(permutation_example_rankings)
        assert result.score == 4

    def test_objective_value_matches_score(self, paper_example_rankings):
        algorithm = ExactAlgorithm()
        result = algorithm.aggregate(paper_example_rankings)
        assert result.details["objective_value"] == pytest.approx(result.score)

    def test_max_elements_guard(self):
        dataset = uniform_dataset(3, 8, rng=0)
        with pytest.raises(AlgorithmNotApplicableError):
            ExactAlgorithm(max_elements=5).aggregate(dataset)

    def test_single_element(self):
        assert ExactAlgorithm().consensus([Ranking([["A"]])]) == Ranking([["A"]])

    def test_agrees_with_subset_dp_on_uniform_datasets(self):
        """The two independent exact solvers must report the same optimal
        score on every dataset (the consensus itself may differ when several
        optima exist)."""
        for seed in range(5):
            dataset = uniform_dataset(4, 7, rng=seed)
            milp_score = ExactAlgorithm().aggregate(dataset).score
            dp_score = ExactSubsetDP().aggregate(dataset).score
            assert milp_score == dp_score

    def test_never_beaten_by_heuristics(self):
        for seed in range(3):
            dataset = uniform_dataset(5, 8, rng=seed)
            optimal = ExactAlgorithm().aggregate(dataset).score
            for heuristic in (BioConsert(), BordaCount(), KwikSort(seed=seed)):
                assert heuristic.aggregate(dataset).score >= optimal


@st.composite
def tiny_dataset(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    m = draw(st.integers(min_value=1, max_value=4))
    elements = list(range(n))
    rankings = []
    for _ in range(m):
        positions = draw(
            st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n)
        )
        rankings.append(Ranking.from_positions(dict(zip(elements, positions))))
    return rankings


@given(tiny_dataset())
@settings(max_examples=20, deadline=None)
def test_exact_solvers_agree_property(rankings):
    milp = ExactAlgorithm().aggregate(rankings)
    dp = ExactSubsetDP().aggregate(rankings)
    assert milp.score == dp.score
    # Both consensuses achieve the optimal score they report.
    assert generalized_kemeny_score(milp.consensus, rankings) == milp.score
    assert generalized_kemeny_score(dp.consensus, rankings) == dp.score


@given(tiny_dataset())
@settings(max_examples=20, deadline=None)
def test_optimum_no_worse_than_any_input(rankings):
    optimal = ExactSubsetDP().aggregate(rankings).score
    for candidate in rankings:
        assert optimal <= generalized_kemeny_score(candidate, rankings)


@st.composite
def tie_heavy_dataset(draw, max_n):
    """Random datasets that tie many candidate buckets: independent tied
    rankings, identical rankings, all-tied rankings, and a dataset plus its
    mirror (every pair costs the same both ways)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=4))
    shape = draw(st.sampled_from(["random", "identical", "all_tied", "mirrored"]))
    levels = draw(st.integers(min_value=1, max_value=n))
    position = st.integers(min_value=0, max_value=levels - 1)

    def ranking():
        positions = draw(st.lists(position, min_size=n, max_size=n))
        return Ranking.from_positions(dict(enumerate(positions)))

    if shape == "identical":
        return [ranking()] * m
    if shape == "all_tied":
        return [Ranking([list(range(n))])] * m
    rankings = [ranking() for _ in range(m)]
    if shape == "mirrored":
        rankings += [candidate.reversed() for candidate in rankings]
    return rankings


def _assert_same_solution(rankings, reference):
    expected = reference.aggregate(rankings)
    for block in (exact_dp._BLOCK_ENTRIES, 4):
        # A tiny block puts block edges inside every popcount level.
        with mock.patch.object(exact_dp, "_BLOCK_ENTRIES", block):
            result = ExactSubsetDP().aggregate(rankings)
        assert result.consensus.buckets == expected.consensus.buckets
        assert result.score == expected.score
        assert result.details["optimal_score"] == expected.details["optimal_score"]


@given(tie_heavy_dataset(max_n=12))
@settings(max_examples=40, deadline=None)
def test_level_pass_matches_state_loop_oracle(rankings):
    _assert_same_solution(rankings, ExactSubsetDPStateLoopOracle())


@given(tie_heavy_dataset(max_n=8))
@settings(max_examples=40, deadline=None)
def test_level_pass_matches_python_oracle(rankings):
    _assert_same_solution(rankings, ExactSubsetDPOracle())
