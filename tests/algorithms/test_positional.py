"""Tests for the positional algorithms: BordaCount, CopelandMethod, MEDRank, MC4."""

from __future__ import annotations

import pytest

from repro.algorithms import MC4, BordaCount, CopelandMethod, MEDRank
from repro.core import Ranking

from oracles import borda_scores, copeland_scores


class TestBordaScores:
    def test_position_is_elements_before_plus_one(self):
        """Section 3.3: the position of an element is the number of elements
        placed before it, plus one — ties share the same position."""
        ranking = Ranking([["A"], ["B", "C"], ["D"]])
        scores = borda_scores([ranking])
        assert scores["A"] == 1
        assert scores["B"] == 2
        assert scores["C"] == 2
        assert scores["D"] == 4

    def test_scores_sum_over_rankings(self, paper_example_rankings):
        scores = borda_scores(paper_example_rankings)
        # A: positions 1, 1, 2 -> 4.
        assert scores["A"] == 4
        # D: positions 2, 4, 1 -> 7.
        assert scores["D"] == 7


class TestBordaCount:
    def test_clear_winner_ranked_first(self):
        rankings = [
            Ranking.from_permutation(["A", "B", "C"]),
            Ranking.from_permutation(["A", "C", "B"]),
            Ranking.from_permutation(["B", "A", "C"]),
        ]
        consensus = BordaCount().consensus(rankings)
        assert consensus.position_of("A") == 0

    def test_equal_scores_are_tied(self):
        rankings = [
            Ranking.from_permutation(["A", "B"]),
            Ranking.from_permutation(["B", "A"]),
        ]
        consensus = BordaCount().consensus(rankings)
        assert consensus.tied("A", "B")

    def test_permutation_output_mode(self):
        rankings = [
            Ranking.from_permutation(["A", "B"]),
            Ranking.from_permutation(["B", "A"]),
        ]
        consensus = BordaCount(tie_equal_scores=False).consensus(rankings)
        assert consensus.is_permutation

    def test_cannot_account_for_tie_cost(self):
        """Section 4.1.3: one untied input ranking is enough to untie a pair
        in the consensus even if every other ranking ties it."""
        rankings = [
            Ranking([["X", "Y"], ["Z"]]),
            Ranking([["X", "Y"], ["Z"]]),
            Ranking([["X", "Y"], ["Z"]]),
            Ranking([["X"], ["Y"], ["Z"]]),
        ]
        consensus = BordaCount().consensus(rankings)
        assert not consensus.tied("X", "Y")


class TestCopeland:
    def test_scores_count_elements_after(self):
        ranking = Ranking([["A"], ["B", "C"], ["D"]])
        scores = copeland_scores([ranking])
        assert scores["A"] == 3
        assert scores["B"] == 1
        assert scores["C"] == 1
        assert scores["D"] == 0

    def test_clear_winner(self, paper_example_rankings):
        consensus = CopelandMethod().consensus(paper_example_rankings)
        assert consensus.position_of("A") == 0

    def test_pairwise_variant(self, paper_example_rankings):
        consensus = CopelandMethod(pairwise_victories=True).consensus(
            paper_example_rankings
        )
        assert consensus.position_of("A") == 0

    def test_permutation_output_mode(self):
        rankings = [
            Ranking.from_permutation(["A", "B"]),
            Ranking.from_permutation(["B", "A"]),
        ]
        assert CopelandMethod(tie_equal_scores=False).consensus(rankings).is_permutation

    def test_agrees_with_borda_on_projected_style_data(self):
        """On permutation inputs the two positional scores are affinely
        related, so the consensus orders coincide."""
        rankings = [
            Ranking.from_permutation(["A", "B", "C", "D"]),
            Ranking.from_permutation(["B", "A", "C", "D"]),
            Ranking.from_permutation(["A", "C", "B", "D"]),
        ]
        assert BordaCount().consensus(rankings) == CopelandMethod().consensus(rankings)


class TestMEDRank:
    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            MEDRank(0.0)
        with pytest.raises(ValueError):
            MEDRank(1.5)

    def test_name_includes_threshold(self):
        assert MEDRank(0.7).name == "MEDRank(0.7)"

    def test_majority_element_emitted_first(self):
        rankings = [
            Ranking.from_permutation(["A", "B", "C"]),
            Ranking.from_permutation(["A", "C", "B"]),
            Ranking.from_permutation(["B", "A", "C"]),
        ]
        consensus = MEDRank(0.5).consensus(rankings)
        assert consensus.position_of("A") == 0

    def test_elements_crossing_threshold_together_are_tied(self):
        rankings = [
            Ranking([["A", "B"], ["C"]]),
            Ranking([["A", "B"], ["C"]]),
            Ranking([["C"], ["A", "B"]]),
        ]
        consensus = MEDRank(0.5).consensus(rankings)
        assert consensus.tied("A", "B")

    def test_all_elements_present_in_output(self, paper_example_rankings):
        consensus = MEDRank(0.5).consensus(paper_example_rankings)
        assert consensus.domain == paper_example_rankings[0].domain

    def test_high_threshold_still_covers_domain(self, paper_example_rankings):
        consensus = MEDRank(1.0).consensus(paper_example_rankings)
        assert consensus.domain == paper_example_rankings[0].domain


class TestMC4:
    def test_condorcet_winner_ranked_first(self):
        rankings = [
            Ranking.from_permutation(["A", "B", "C", "D"]),
            Ranking.from_permutation(["A", "C", "B", "D"]),
            Ranking.from_permutation(["B", "A", "C", "D"]),
        ]
        consensus = MC4().consensus(rankings)
        assert consensus.position_of("A") == 0

    def test_single_element(self):
        assert MC4().consensus([Ranking([["A"]])]) == Ranking([["A"]])

    def test_invalid_damping(self):
        with pytest.raises(ValueError):
            MC4(damping=0.0)

    def test_details_report_iterations(self, paper_example_rankings):
        algorithm = MC4()
        result = algorithm.aggregate(paper_example_rankings)
        assert result.details["power_iterations"] >= 1

    def test_reasonable_quality_on_paper_example(self, paper_example_rankings):
        result = MC4().aggregate(paper_example_rankings)
        assert result.score <= 8
