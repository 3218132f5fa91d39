"""BordaCount (Borda 1781), adapted to rankings with ties.

Positional algorithm (family [P], Section 3.3).  The position of an element
in a ranking with ties is *the number of elements placed strictly before it,
plus one* — a formulation that directly encompasses ties (Section 4.1.3).
The Borda score of an element is the sum of its positions across the input
rankings; elements are sorted by increasing score.

Ties adaptation: elements whose total scores are exactly equal are placed in
the same bucket (the "slight modification" of Table 1).  The algorithm
cannot account for the *cost* of (un)tying elements: a single input ranking
breaking a tie is enough to untie the pair in the consensus, which is the
behaviour Section 4.1.3 points out and Figure 5 measures.

The scores are read off the dataset's dense position tensor through
:func:`repro.core.arrays.positional_counts` — one vectorised pass, no
per-bucket Python loop.

Complexity: O(n·m + n log n).
"""

from __future__ import annotations

from collections.abc import Sequence

from ..core.arrays import positional_counts
from ..core.pairwise import PairwiseWeights
from ..core.ranking import Element, Ranking
from .base import RankAggregator

__all__ = ["BordaCount", "borda_scores_from_weights"]


def borda_scores_from_weights(weights: PairwiseWeights) -> dict[Element, float]:
    """Borda score of every element: sum over rankings of (1 + #elements before).

    The per-element elements-before counts come from one
    :func:`~repro.core.arrays.positional_counts` pass over
    ``weights.positions``.  Every per-ranking position is an integer far
    below 2**53, so the float scores are exact integer sums.

    Parameters
    ----------
    weights:
        Prepared pairwise weights of the dataset (carrying the tensor).
    """
    before_counts, _ = positional_counts(weights.positions)
    totals = before_counts.sum(axis=0) + weights.num_rankings
    return {
        element: float(totals[index])
        for index, element in enumerate(weights.elements)
    }


class BordaCount(RankAggregator):
    """Sort elements by the sum of their positions in the input rankings."""

    name = "BordaCount"
    family = "P"
    approximation = "5"
    produces_ties = True
    accounts_for_tie_cost = False
    randomized = False

    def __init__(
        self,
        *,
        tie_equal_scores: bool = True,
        seed: int | None = None,
    ):
        """
        Parameters
        ----------
        tie_equal_scores:
            When ``True`` (default), elements with exactly equal Borda scores
            are tied in the consensus.  When ``False`` the output is a
            permutation (ties broken deterministically by element order),
            matching the original permutation-only formulation.
        """
        super().__init__(seed=seed)
        self._tie_equal_scores = tie_equal_scores

    def _aggregate(
        self, rankings: Sequence[Ranking], weights: PairwiseWeights
    ) -> Ranking:
        consensus = Ranking.from_scores(borda_scores_from_weights(weights))
        if self._tie_equal_scores:
            return consensus
        return consensus.break_ties()
