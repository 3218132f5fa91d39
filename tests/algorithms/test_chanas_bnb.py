"""Tests for the permutation-only algorithms: Chanas, ChanasBoth, branch-and-bound."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import BranchAndBound, Chanas, ChanasBoth, PickAPerm
from repro.core import PairwiseWeights, Ranking, kemeny_score


class TestChanas:
    def test_output_is_permutation(self, paper_example_rankings):
        consensus = Chanas().consensus(paper_example_rankings)
        assert consensus.is_permutation
        assert consensus.domain == paper_example_rankings[0].domain

    def test_optimal_on_permutation_example(self, permutation_example_rankings):
        """Section 2.1 example: the optimal permutation consensus has score 4."""
        result = Chanas().aggregate(permutation_example_rankings)
        assert result.score == 4

    def test_identical_inputs(self):
        ranking = Ranking.from_permutation(["A", "B", "C"])
        assert Chanas().consensus([ranking, ranking]) == ranking

    def test_single_element(self):
        assert Chanas().consensus([Ranking([["A"]])]) == Ranking([["A"]])


class TestChanasBoth:
    def test_never_worse_than_plain_chanas(self, permutation_example_rankings):
        plain = Chanas().aggregate(permutation_example_rankings)
        both = ChanasBoth().aggregate(permutation_example_rankings)
        assert both.score <= plain.score

    def test_output_is_permutation(self, paper_example_rankings):
        assert ChanasBoth().consensus(paper_example_rankings).is_permutation

    def test_never_worse_than_best_input_on_permutations(self, permutation_example_rankings):
        both = ChanasBoth().aggregate(permutation_example_rankings)
        pick = PickAPerm().aggregate(permutation_example_rankings)
        assert both.score <= pick.score


@pytest.mark.parametrize("algorithm", [Chanas, ChanasBoth])
@pytest.mark.parametrize("max_rounds", [-1, True, False, 2.5, 3.0, "3", None, np.int64(3)])
def test_max_rounds_must_be_a_non_negative_int(algorithm, max_rounds):
    """Negative caps, bools, floats, strings and NumPy integers are rejected
    at construction, not at the first aggregate (or silently)."""
    with pytest.raises(ValueError, match="max_rounds must be an int >= 0"):
        algorithm(max_rounds=max_rounds)


@pytest.mark.parametrize("algorithm", [Chanas, ChanasBoth])
def test_zero_max_rounds_runs_no_sort_pass(algorithm, permutation_example_rankings):
    """``max_rounds=0`` is valid: every start is its own only candidate."""
    rankings = permutation_example_rankings
    stream = list(algorithm(max_rounds=0)._anytime_candidates(rankings, PairwiseWeights(rankings)))
    assert len(stream) == (1 if algorithm is Chanas else len(rankings) + 1)


class TestBranchAndBound:
    def test_invalid_beam_width(self):
        with pytest.raises(ValueError):
            BranchAndBound(beam_width=0)

    def test_exact_on_permutation_example(self, permutation_example_rankings):
        result = BranchAndBound().aggregate(permutation_example_rankings)
        assert result.score == 4
        assert result.details["proved_optimal"] is True

    def test_optimal_among_permutations_with_ties_input(self, paper_example_rankings):
        """The optimal consensus of the paper's ties example has score 5 with
        ties; the best *permutation* has score 6 — BnB must find it."""
        result = BranchAndBound().aggregate(paper_example_rankings)
        assert result.consensus.is_permutation
        assert result.score == 6

    def test_matches_brute_force_on_small_instances(self):
        from itertools import permutations as iter_permutations

        rankings = [
            Ranking.from_permutation(["A", "C", "B", "D"]),
            Ranking.from_permutation(["B", "A", "D", "C"]),
            Ranking.from_permutation(["C", "B", "A", "D"]),
        ]
        brute_force = min(
            kemeny_score(Ranking.from_permutation(order), rankings)
            for order in iter_permutations(["A", "B", "C", "D"])
        )
        assert BranchAndBound().aggregate(rankings).score == brute_force

    def test_beam_search_returns_valid_permutation(self, permutation_example_rankings):
        result = BranchAndBound(beam_width=2).aggregate(permutation_example_rankings)
        assert result.consensus.is_permutation
        assert result.details["proved_optimal"] is False

    def test_beam_search_quality_close_to_exact(self, permutation_example_rankings):
        exact = BranchAndBound().aggregate(permutation_example_rankings)
        beam = BranchAndBound(beam_width=8).aggregate(permutation_example_rankings)
        assert beam.score >= exact.score
        assert beam.score <= exact.score + 2

    def test_node_cap_still_returns_valid_permutation(self, permutation_example_rankings):
        """With an aggressive node cap the search may stop early, but it must
        still return a valid permutation no worse than its Borda incumbent."""
        result = BranchAndBound(max_nodes=1).aggregate(permutation_example_rankings)
        assert result.consensus.is_permutation
        assert result.consensus.domain == permutation_example_rankings[0].domain
        assert result.score >= 4

    def test_nodes_expanded_reported(self, permutation_example_rankings):
        algorithm = BranchAndBound()
        result = algorithm.aggregate(permutation_example_rankings)
        assert result.details["nodes_expanded"] >= 1
