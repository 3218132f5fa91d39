"""Tests for the BioConsert local-search algorithm."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import BioConsert, ExactSubsetDP, PickAPerm
from repro.core import Ranking, generalized_kemeny_score
from repro.generators import uniform_dataset


class TestBioConsert:
    def test_finds_optimum_on_paper_example(self, paper_example_rankings, paper_example_optimal):
        result = BioConsert().aggregate(paper_example_rankings)
        assert result.score == 5
        assert result.consensus == paper_example_optimal

    def test_identical_inputs(self):
        ranking = Ranking([["A"], ["B", "C"], ["D"]])
        result = BioConsert().aggregate([ranking, ranking])
        assert result.score == 0
        assert result.consensus == ranking

    def test_never_worse_than_best_input(self, paper_example_rankings):
        """The local search starts from each input ranking, so the result is
        at least as good as Pick-a-Perm."""
        bioconsert = BioConsert().aggregate(paper_example_rankings)
        pick = PickAPerm().aggregate(paper_example_rankings)
        assert bioconsert.score <= pick.score

    def test_with_borda_start(self, paper_example_rankings):
        result = BioConsert(include_borda_start=True).aggregate(paper_example_rankings)
        assert result.score == 5

    def test_details_report_sweeps_and_starts(self, paper_example_rankings):
        algorithm = BioConsert()
        result = algorithm.aggregate(paper_example_rankings)
        assert result.details["sweeps"] >= 1
        assert result.details["starting_points"] == 3

    def test_output_covers_domain(self, paper_example_rankings):
        consensus = BioConsert().consensus(paper_example_rankings)
        assert consensus.domain == paper_example_rankings[0].domain

    def test_single_element(self):
        assert BioConsert().consensus([Ranking([["A"]])]) == Ranking([["A"]])

    def test_two_elements_majority_tie(self):
        rankings = [
            Ranking([["A", "B"]]),
            Ranking([["A", "B"]]),
            Ranking([["A"], ["B"]]),
        ]
        consensus = BioConsert().consensus(rankings)
        assert consensus.tied("A", "B")

    def test_score_reported_matches_consensus(self, paper_example_rankings):
        result = BioConsert().aggregate(paper_example_rankings)
        assert result.score == generalized_kemeny_score(
            result.consensus, paper_example_rankings
        )

    def test_matches_exact_on_small_uniform_datasets(self):
        """BioConsert finds the optimum on most small datasets (Section 7.1.1
        reports 68% of them); over several seeds it must find it at least once
        and never beat it."""
        exact = ExactSubsetDP()
        found_optimal = 0
        for seed in range(6):
            dataset = uniform_dataset(4, 7, rng=seed)
            optimal = exact.aggregate(dataset).score
            heuristic = BioConsert().aggregate(dataset).score
            assert heuristic >= optimal
            if heuristic == optimal:
                found_optimal += 1
        assert found_optimal >= 4


@st.composite
def small_dataset(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    m = draw(st.integers(min_value=1, max_value=4))
    elements = list(range(n))
    rankings = []
    for _ in range(m):
        positions = draw(
            st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n)
        )
        rankings.append(Ranking.from_positions(dict(zip(elements, positions))))
    return rankings


@given(small_dataset())
@settings(max_examples=40, deadline=None)
def test_bioconsert_never_worse_than_inputs(rankings):
    result = BioConsert().aggregate(rankings)
    best_input = min(
        generalized_kemeny_score(candidate, rankings) for candidate in rankings
    )
    assert result.score <= best_input


@given(small_dataset())
@settings(max_examples=25, deadline=None)
def test_bioconsert_matches_exact_or_stays_close(rankings):
    """On tiny instances the local search must stay within a small factor of
    the optimum (it is a 2-approximation in the worst case)."""
    optimal = ExactSubsetDP().aggregate(rankings).score
    heuristic = BioConsert().aggregate(rankings).score
    assert optimal <= heuristic <= max(2 * optimal, optimal)


@pytest.mark.parametrize("max_sweeps", [-1, True, False, 2.5, 3.0, "3", None, np.int64(3)])
def test_max_sweeps_must_be_a_non_negative_int(max_sweeps):
    """Negative caps, bools, floats, strings and NumPy integers are rejected
    at construction, not at the first aggregate (or silently)."""
    with pytest.raises(ValueError, match="max_sweeps must be an int >= 0"):
        BioConsert(max_sweeps=max_sweeps)
