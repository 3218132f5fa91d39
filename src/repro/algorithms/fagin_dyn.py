"""FaginDyn (Fagin, Kumar, Mahdian, Sivakumar & Vee 2004).

Dynamic-programming algorithm designed natively for rankings with ties
(family [G], Section 3.1), 4-approximation, running in O(n·m + n²):

1. elements are ordered by a positional score (their Borda score, i.e. the
   sum of the number of elements placed before them in each ranking);
2. a dynamic program chooses how to split this fixed order into contiguous
   buckets so as to minimise the generalized Kemeny score: with the element
   order fixed, the only remaining decision for a pair is whether it is
   tied (same bucket) or ordered (different buckets), so the optimal
   bucketing of a prefix decomposes over the last bucket.

Two variants are evaluated in the paper (Section 3.1): **FaginLarge**
favours solutions with large buckets and **FaginSmall** favours small
buckets; they differ only in how cost ties are broken in the dynamic
program.  Figure 5 of the paper shows the practical impact of this choice
when the unification process creates large ending buckets.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.pairwise import PairwiseWeights
from ..core.ranking import Ranking
from .base import RankAggregator
from .borda import borda_scores_from_weights

__all__ = ["FaginDyn", "FaginSmall", "FaginLarge"]


class FaginDyn(RankAggregator):
    """Score-then-bucket dynamic programming over rankings with ties."""

    name = "FaginDyn"
    family = "G"
    approximation = "4"
    produces_ties = True
    accounts_for_tie_cost = True
    randomized = False

    def __init__(self, *, prefer: str = "small", seed: int | None = None):
        """
        Parameters
        ----------
        prefer:
            ``"small"`` (FaginSmall) or ``"large"`` (FaginLarge): which
            bucket size to favour when two bucketings have the same cost.
        """
        super().__init__(seed=seed)
        if prefer not in ("small", "large"):
            raise ValueError(f"prefer must be 'small' or 'large', got {prefer!r}")
        self._prefer = prefer
        self.name = "FaginSmall" if prefer == "small" else "FaginLarge"

    # ------------------------------------------------------------------ #
    def _aggregate(
        self, rankings: Sequence[Ranking], weights: PairwiseWeights
    ) -> Ranking:
        # 1. Fix the element order by Borda score (ascending = best first).
        scores = borda_scores_from_weights(weights)
        ordered_elements = sorted(
            weights.elements, key=lambda element: (scores[element], _element_key(element))
        )
        order_indices = np.asarray(
            [weights.index_of[element] for element in ordered_elements], dtype=np.intp
        )

        # 2. Pair-cost matrices re-indexed along the fixed order.
        cost_before = weights.cost_before()[np.ix_(order_indices, order_indices)]
        cost_tied = weights.cost_tied()[np.ix_(order_indices, order_indices)]
        boundaries = self._optimal_boundaries(cost_before, cost_tied)

        # 3. Materialise the buckets from the boundary list.
        buckets = []
        start = 0
        for end in boundaries:
            buckets.append(list(ordered_elements[start:end]))
            start = end
        return Ranking(buckets)

    # ------------------------------------------------------------------ #
    def _optimal_boundaries(
        self, cost_before: np.ndarray, cost_tied: np.ndarray
    ) -> list[int]:
        """Dynamic program over prefix lengths.

        ``dp[i]`` is the minimal *tie adjustment* of the first ``i`` elements:
        the base cost (every pair ordered as in the fixed order) is constant,
        so only the delta ``cost_tied - cost_before`` of the pairs that end up
        in the same bucket matters.  ``delta_from[j]`` maintained in the
        inner loop is the adjustment of making ``elements[j:i]`` one bucket.

        Cost ties are broken globally on the number of buckets: FaginLarge
        minimises it (few large buckets), FaginSmall maximises it (many
        small buckets).  Returns the list of bucket end positions.
        """
        n = cost_before.shape[0]
        if n == 0:
            return []
        diff = cost_tied - cost_before  # delta of tying the pair instead of ordering it
        dp = np.zeros(n + 1, dtype=np.int64)
        bucket_count = np.zeros(n + 1, dtype=np.int64)
        back = np.zeros(n + 1, dtype=np.intp)
        # delta_from[j] = adjustment of bucket elements[j:i] for the current i.
        delta_from = np.zeros(n + 1, dtype=np.int64)
        prefer_large = self._prefer == "large"
        # Lexicographic comparison (cost, tie-break) folded into one integer:
        # the secondary term is bounded by n + 1, so scaling the primary cost
        # by (n + 2) keeps the order exact.
        scale = n + 2
        for i in range(1, n + 1):
            new_element = i - 1
            # Extend every open segment with the new element: add the pair
            # deltas between the new element and elements j .. i-2.
            if i >= 2:
                column = diff[:new_element, new_element]
                suffix = np.concatenate((np.cumsum(column[::-1])[::-1], [0]))
                delta_from[:i] += suffix
            delta_from[i - 1] = 0  # segment containing only the new element
            candidates = dp[:i] + delta_from[:i]
            counts = bucket_count[:i] + 1
            secondary = counts if prefer_large else (n + 1 - counts)
            best_j = int(np.argmin(candidates * scale + secondary))
            dp[i] = candidates[best_j]
            bucket_count[i] = bucket_count[best_j] + 1
            back[i] = best_j
        boundaries: list[int] = []
        position = n
        while position > 0:
            boundaries.append(position)
            position = int(back[position])
        boundaries.reverse()
        return boundaries


class FaginSmall(FaginDyn):
    """FaginDyn variant favouring small buckets on cost ties."""

    name = "FaginSmall"

    def __init__(self, *, seed: int | None = None):
        super().__init__(prefer="small", seed=seed)


class FaginLarge(FaginDyn):
    """FaginDyn variant favouring large buckets on cost ties."""

    name = "FaginLarge"

    def __init__(self, *, seed: int | None = None):
        super().__init__(prefer="large", seed=seed)


def _element_key(element) -> tuple[str, str]:
    return (type(element).__name__, repr(element))
