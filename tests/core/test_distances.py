"""Tests for the Kendall-τ and generalized Kendall-τ distances."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DomainMismatchError,
    Ranking,
    generalized_kendall_tau_distance,
    kendall_tau_distance,
    pairwise_distance_matrix,
    spearman_footrule_distance,
    weighted_generalized_kendall_tau_distance,
)

from oracles import generalized_kendall_tau_distance_reference


class TestKendallTau:
    def test_identical_permutations(self):
        pi = Ranking.from_permutation(["A", "B", "C"])
        assert kendall_tau_distance(pi, pi) == 0

    def test_reversed_permutations(self):
        pi = Ranking.from_permutation(["A", "B", "C", "D"])
        sigma = Ranking.from_permutation(["D", "C", "B", "A"])
        assert kendall_tau_distance(pi, sigma) == 6  # all pairs inverted

    def test_single_swap(self):
        pi = Ranking.from_permutation(["A", "B", "C"])
        sigma = Ranking.from_permutation(["B", "A", "C"])
        assert kendall_tau_distance(pi, sigma) == 1

    def test_paper_permutation_example(self, permutation_example_rankings):
        """Section 2.1: S(pi*, P) = 4 for pi* = [A, D, C, B]."""
        optimal = Ranking.from_permutation(["A", "D", "C", "B"])
        total = sum(
            kendall_tau_distance(optimal, pi) for pi in permutation_example_rankings
        )
        assert total == 4

    def test_rejects_ties(self):
        tied = Ranking([["A", "B"], ["C"]])
        permutation = Ranking.from_permutation(["A", "B", "C"])
        with pytest.raises(ValueError):
            kendall_tau_distance(tied, permutation)

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatchError):
            kendall_tau_distance(
                Ranking.from_permutation(["A", "B"]),
                Ranking.from_permutation(["A", "C"]),
            )


class TestGeneralizedKendallTau:
    def test_identical_rankings(self):
        ranking = Ranking([["A"], ["B", "C"]])
        assert generalized_kendall_tau_distance(ranking, ranking) == 0

    def test_matches_kendall_tau_on_permutations(self):
        pi = Ranking.from_permutation(["A", "B", "C", "D"])
        sigma = Ranking.from_permutation(["B", "D", "A", "C"])
        assert generalized_kendall_tau_distance(pi, sigma) == kendall_tau_distance(pi, sigma)

    def test_tie_in_one_ranking_costs_one(self):
        r = Ranking([["A", "B"]])
        s = Ranking([["A"], ["B"]])
        assert generalized_kendall_tau_distance(r, s) == 1

    def test_inversion_costs_one(self):
        r = Ranking([["A"], ["B"]])
        s = Ranking([["B"], ["A"]])
        assert generalized_kendall_tau_distance(r, s) == 1

    def test_paper_example_score_components(self, paper_example_rankings, paper_example_optimal):
        """Section 2.2: the distances from r* to r1, r2, r3 sum to 5."""
        distances = [
            generalized_kendall_tau_distance(paper_example_optimal, ranking)
            for ranking in paper_example_rankings
        ]
        assert sum(distances) == 5
        assert distances[0] == 0  # r* equals r1

    def test_symmetry_small_example(self):
        r = Ranking([["A", "B"], ["C"]])
        s = Ranking([["C"], ["A"], ["B"]])
        assert generalized_kendall_tau_distance(r, s) == generalized_kendall_tau_distance(s, r)

    def test_single_element(self):
        r = Ranking([["A"]])
        assert generalized_kendall_tau_distance(r, r) == 0

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatchError):
            generalized_kendall_tau_distance(Ranking([["A"]]), Ranking([["B"]]))

    def test_all_tied_versus_permutation(self):
        tied = Ranking([["A", "B", "C", "D"]])
        permutation = Ranking.from_permutation(["A", "B", "C", "D"])
        # Every pair is tied in one ranking only: 6 disagreements.
        assert generalized_kendall_tau_distance(tied, permutation) == 6


class TestWeightedGeneralizedKendallTau:
    def test_unit_cost_matches_default(self):
        r = Ranking([["A", "B"], ["C"]])
        s = Ranking([["C"], ["A"], ["B"]])
        assert weighted_generalized_kendall_tau_distance(r, s, tie_cost=1.0) == (
            generalized_kendall_tau_distance(r, s)
        )

    def test_half_cost_for_ties(self):
        r = Ranking([["A", "B"]])
        s = Ranking([["A"], ["B"]])
        assert weighted_generalized_kendall_tau_distance(r, s, tie_cost=0.5) == 0.5

    def test_zero_tie_cost_counts_only_inversions(self):
        r = Ranking([["A", "B"], ["C"]])
        s = Ranking([["C"], ["A", "B"]])
        assert weighted_generalized_kendall_tau_distance(r, s, tie_cost=0.0) == 2.0

    def test_negative_cost_rejected(self):
        r = Ranking([["A"]])
        with pytest.raises(ValueError):
            weighted_generalized_kendall_tau_distance(r, r, tie_cost=-1.0)


class TestSpearmanFootrule:
    def test_identical(self):
        ranking = Ranking([["A"], ["B", "C"]])
        assert spearman_footrule_distance(ranking, ranking) == 0.0

    def test_simple_swap(self):
        r = Ranking.from_permutation(["A", "B"])
        s = Ranking.from_permutation(["B", "A"])
        assert spearman_footrule_distance(r, s) == 2.0

    def test_within_constant_of_kendall(self):
        """Diaconis-Graham: D <= footrule <= 2 D for permutations."""
        r = Ranking.from_permutation(["A", "B", "C", "D", "E"])
        s = Ranking.from_permutation(["C", "A", "E", "B", "D"])
        kendall = kendall_tau_distance(r, s)
        footrule = spearman_footrule_distance(r, s)
        assert kendall <= footrule <= 2 * kendall


class TestPairwiseDistanceMatrix:
    def test_matrix_shape_and_symmetry(self, paper_example_rankings):
        matrix = pairwise_distance_matrix(paper_example_rankings)
        assert matrix.shape == (3, 3)
        assert (matrix == matrix.T).all()
        assert (matrix.diagonal() == 0).all()

    def test_matrix_values(self, paper_example_rankings):
        matrix = pairwise_distance_matrix(paper_example_rankings)
        r1, r2, r3 = paper_example_rankings
        assert matrix[0, 1] == generalized_kendall_tau_distance(r1, r2)
        assert matrix[1, 2] == generalized_kendall_tau_distance(r2, r3)


# --------------------------------------------------------------------------- #
# Property-based tests: the vectorised implementation must match the
# reference implementation, and G must behave like a metric.
# --------------------------------------------------------------------------- #
@st.composite
def ranking_pair(draw, max_elements: int = 7):
    n = draw(st.integers(min_value=1, max_value=max_elements))
    elements = list(range(n))

    def draw_ranking():
        positions = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n
            )
        )
        return Ranking.from_positions(dict(zip(elements, positions)))

    return draw_ranking(), draw_ranking()


@given(ranking_pair())
@settings(max_examples=150)
def test_vectorized_matches_reference(pair):
    r, s = pair
    assert generalized_kendall_tau_distance(r, s) == (
        generalized_kendall_tau_distance_reference(r, s)
    )


@given(ranking_pair())
def test_generalized_distance_symmetry(pair):
    r, s = pair
    assert generalized_kendall_tau_distance(r, s) == generalized_kendall_tau_distance(s, r)


@given(ranking_pair())
def test_generalized_distance_identity(pair):
    r, _ = pair
    assert generalized_kendall_tau_distance(r, r) == 0


@given(ranking_pair())
def test_generalized_distance_bounded_by_pair_count(pair):
    r, s = pair
    n = len(r)
    assert 0 <= generalized_kendall_tau_distance(r, s) <= n * (n - 1) // 2


@st.composite
def ranking_triple(draw, max_elements: int = 6):
    n = draw(st.integers(min_value=1, max_value=max_elements))
    elements = list(range(n))

    def draw_ranking():
        positions = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n
            )
        )
        return Ranking.from_positions(dict(zip(elements, positions)))

    return draw_ranking(), draw_ranking(), draw_ranking()


@given(ranking_triple())
@settings(max_examples=100)
def test_generalized_distance_triangle_inequality(triple):
    r, s, t = triple
    d_rs = generalized_kendall_tau_distance(r, s)
    d_st = generalized_kendall_tau_distance(s, t)
    d_rt = generalized_kendall_tau_distance(r, t)
    assert d_rt <= d_rs + d_st
