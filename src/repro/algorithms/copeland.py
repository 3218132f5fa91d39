"""CopelandMethod (Copeland 1951), adapted to rankings with ties.

Positional algorithm (family [P], Section 3.3).  The Copeland score of an
element is the sum, over the input rankings, of the number of elements
placed strictly *after* it; elements are sorted by decreasing score.

As with BordaCount, ties adaptation follows the general methodology of
Section 4.1.3: the positional formulation directly handles rankings with
ties as input, elements with exactly equal scores are tied in the output,
but the method cannot account for the cost of (un)tying elements.

An alternative, equivalent-in-spirit "pairwise" variant is also provided
(``pairwise_victories=True``): the score of an element is the number of
opponents it beats in a majority contest — the textbook Copeland rule.  The
position-based variant is the default because it is the one the paper
describes (sum of the number of elements placed after).

The positional scores read the elements-after counts off the dataset's
dense position tensor (:func:`repro.core.arrays.positional_counts`).

Complexity: O(n·m + n log n) for the positional variant; O(n²) when using
pairwise victories.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.arrays import positional_counts
from ..core.pairwise import PairwiseWeights
from ..core.ranking import Element, Ranking
from .base import RankAggregator

__all__ = ["CopelandMethod", "copeland_scores_from_weights"]


def copeland_scores_from_weights(weights: PairwiseWeights) -> dict[Element, float]:
    """Copeland score: sum over rankings of the number of elements placed after.

    The elements-after counts are ``n − bucket_size − elements_before`` per
    (ranking, element) cell, both read from one
    :func:`~repro.core.arrays.positional_counts` pass over the prepared
    position tensor.

    Parameters
    ----------
    weights:
        Prepared pairwise weights of the dataset (carrying the tensor).
    """
    before_counts, bucket_sizes = positional_counts(weights.positions)
    after_counts = weights.num_elements - bucket_sizes - before_counts
    totals = after_counts.sum(axis=0)
    return {
        element: float(totals[index])
        for index, element in enumerate(weights.elements)
    }


def copeland_pairwise_scores(weights: PairwiseWeights) -> dict[Element, float]:
    """Classic Copeland rule: +1 per opponent beaten by majority, +0.5 per draw."""
    before = weights.before_matrix
    wins = (before > before.T).astype(float)
    draws = (before == before.T).astype(float)
    np.fill_diagonal(draws, 0.0)
    totals = wins.sum(axis=1) + 0.5 * draws.sum(axis=1)
    return {element: float(totals[i]) for i, element in enumerate(weights.elements)}


class CopelandMethod(RankAggregator):
    """Sort elements by the number of elements ranked after them (descending)."""

    name = "CopelandMethod"
    family = "P"
    approximation = None
    produces_ties = True
    accounts_for_tie_cost = False
    randomized = False

    def __init__(
        self,
        *,
        tie_equal_scores: bool = True,
        pairwise_victories: bool = False,
        seed: int | None = None,
    ):
        """
        Parameters
        ----------
        tie_equal_scores:
            Tie elements with exactly equal scores (default) or break ties to
            output a permutation.
        pairwise_victories:
            Use the classic majority-victory Copeland rule instead of the
            positional score described in the paper.
        """
        super().__init__(seed=seed)
        self._tie_equal_scores = tie_equal_scores
        self._pairwise_victories = pairwise_victories

    def _aggregate(
        self, rankings: Sequence[Ranking], weights: PairwiseWeights
    ) -> Ranking:
        if self._pairwise_victories:
            scores = copeland_pairwise_scores(weights)
        else:
            scores = copeland_scores_from_weights(weights)
        consensus = Ranking.from_scores(scores, reverse=True)
        if self._tie_equal_scores:
            return consensus
        return consensus.break_ties()
