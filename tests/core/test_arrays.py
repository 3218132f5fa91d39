"""Tests for the dense array kernel layer (repro.core.arrays)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    DomainMismatchError,
    EmptyDatasetError,
    PairwiseWeights,
    Ranking,
    disagreement_counts,
    distances_to_stack,
    pairwise_distance_tensor,
    pairwise_order_counts,
    position_tensor,
)

from oracles import (
    generalized_kendall_tau_distance_reference,
    pairwise_distance_matrix_reference,
)


def _random_rankings(m: int, n: int, seed: int) -> list[Ranking]:
    """Random rankings with ties over the same 0..n-1 domain."""
    rng = np.random.default_rng(seed)
    rankings = []
    for _ in range(m):
        positions = rng.integers(0, n, size=n)
        rankings.append(Ranking.from_positions(dict(enumerate(positions.tolist()))))
    return rankings


class TestDensePositions:
    def test_positions_follow_sorted_elements(self):
        ranking = Ranking([["B"], ["A", "C"], ["D"]])
        assert ranking.sorted_elements() == ("A", "B", "C", "D")
        assert ranking.dense_positions().tolist() == [1, 0, 1, 2]

    def test_cached_and_read_only(self):
        ranking = Ranking([["A"], ["B"]])
        first = ranking.dense_positions()
        assert ranking.dense_positions() is first  # cached, no re-encoding
        with pytest.raises(ValueError):
            first[0] = 5

    def test_same_domain_rankings_align(self):
        r = Ranking([["A", "B"], ["C"]])
        s = Ranking([["C"], ["B"], ["A"]])
        assert r.sorted_elements() == s.sorted_elements()

    def test_empty_ranking(self):
        ranking = Ranking([])
        assert ranking.sorted_elements() == ()
        assert ranking.dense_positions().shape == (0,)


class TestPositionTensor:
    def test_shape_and_values(self):
        r = Ranking([["A"], ["B", "C"]])
        s = Ranking([["C"], ["A", "B"]])
        elements, tensor = position_tensor([r, s])
        assert elements == ["A", "B", "C"]
        assert tensor.tolist() == [[0, 1, 1], [1, 1, 0]]

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDatasetError):
            position_tensor([])

    def test_domain_mismatch_rejected(self):
        with pytest.raises(DomainMismatchError):
            position_tensor([Ranking([["A"]]), Ranking([["B"]])])


class TestPairwiseOrderCounts:
    def test_matches_pairwise_weights(self):
        rankings = _random_rankings(9, 17, seed=3)
        weights = PairwiseWeights(rankings)
        _, tensor = position_tensor(rankings)
        before, tied = pairwise_order_counts(tensor)
        assert (before == weights.before_matrix).all()
        assert (tied == weights.tied_matrix).all()

    def test_chunking_is_invisible(self):
        rankings = _random_rankings(11, 13, seed=4)
        _, tensor = position_tensor(rankings)
        whole = pairwise_order_counts(tensor)
        chunked = pairwise_order_counts(tensor, block_cells=1)
        assert (whole[0] == chunked[0]).all()
        assert (whole[1] == chunked[1]).all()


class TestDisagreementCounts:
    def test_matches_reference_distance(self):
        rankings = _random_rankings(8, 15, seed=5)
        _, tensor = position_tensor(rankings)
        for i in range(4):
            for j in range(4, 8):
                inverted, tied_in_one = disagreement_counts(tensor[i], tensor[j])
                reference = generalized_kendall_tau_distance_reference(
                    rankings[i], rankings[j]
                )
                assert inverted + tied_in_one == reference

    def test_tiny_inputs(self):
        assert disagreement_counts(np.array([0]), np.array([0])) == (0, 0)
        assert disagreement_counts(np.array([], dtype=np.int64), np.array([], dtype=np.int64)) == (0, 0)


class TestPairwiseDistanceTensor:
    def test_matches_reference_matrix(self):
        rankings = _random_rankings(12, 21, seed=6)
        _, tensor = position_tensor(rankings)
        batched = pairwise_distance_tensor(tensor)
        reference = pairwise_distance_matrix_reference(rankings)
        assert (batched == reference).all()

    def test_chunking_is_invisible(self):
        rankings = _random_rankings(10, 9, seed=7)
        _, tensor = position_tensor(rankings)
        whole = pairwise_distance_tensor(tensor)
        chunked = pairwise_distance_tensor(tensor, block_cells=1)
        assert (whole == chunked).all()

    def test_degenerate_sizes(self):
        assert pairwise_distance_tensor(np.zeros((1, 5), dtype=np.int64)).shape == (1, 1)
        assert pairwise_distance_tensor(np.zeros((3, 1), dtype=np.int64)).sum() == 0


class TestDistancesToStack:
    def test_matches_matrix_row(self):
        rankings = _random_rankings(10, 14, seed=8)
        _, tensor = position_tensor(rankings)
        reference = pairwise_distance_matrix_reference(rankings)
        for row in (0, 3, 9):
            distances = distances_to_stack(tensor[row], tensor, block_cells=100)
            assert (distances == reference[row]).all()
