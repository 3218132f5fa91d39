"""MEDRank (Fagin, Kumar & Sivakumar 2003), adapted to rankings with ties.

Positional algorithm (family [P], Section 3.3) designed for Top-k
aggregation without any sorting step: the input rankings are read *in
parallel, bucket by bucket*; as soon as an element has been seen in at least
``h·m`` rankings (``h`` is the threshold, ``m`` the number of rankings), it
is appended to the consensus.

Ties adaptation (Section 4.1.3): reading a bucket delivers all of its
elements at once, and all the elements that cross the threshold during the
same reading round are placed in the same consensus bucket.  The complexity
is unchanged: O(n·m).

The paper evaluates MEDRank with thresholds 0.5 (default, best in 76% of
the synthetic datasets) and 0.7 (Section 7.1.1).

An element crosses the threshold exactly at the ``q``-th smallest of its
per-ranking bucket positions (``q`` the smallest count satisfying the
threshold), so the emission rounds of *all* elements come from one partial
sort of the dataset's position tensor instead of a round-by-round reading
loop.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from ..core.pairwise import PairwiseWeights
from ..core.ranking import Element, Ranking
from .base import RankAggregator

__all__ = ["MEDRank"]


class MEDRank(RankAggregator):
    """Threshold-based parallel reading of the input rankings."""

    name = "MEDRank(0.5)"
    family = "P"
    approximation = None
    produces_ties = True
    accounts_for_tie_cost = False
    randomized = False

    def __init__(self, threshold: float = 0.5, *, seed: int | None = None):
        """
        Parameters
        ----------
        threshold:
            Fraction ``h`` of the rankings that must have delivered an
            element before it is appended to the consensus; must lie in the
            open interval (0, 1].  The paper uses 0.5 and 0.7.
        """
        super().__init__(seed=seed)
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self._threshold = threshold
        self.name = f"MEDRank({threshold:g})"

    def _aggregate(
        self, rankings: Sequence[Ranking], weights: PairwiseWeights
    ) -> Ranking:
        """Emission rounds as order statistics of the prepared position tensor.

        An element's seen-count after reading round ``t`` is the number of
        rankings placing it in a bucket of index ≤ ``t``; it first reaches
        the (possibly fractional) requirement ``h·m`` at the ``q``-th
        smallest of its positions, ``q = ceil(h·m)``.  Elements sharing an
        emission round share a consensus bucket, listed in
        ``weights.elements`` order (type name, repr).
        """
        positions = weights.positions
        m, n = positions.shape
        required = self._threshold * m
        q = int(math.ceil(required))
        if q > m:
            # No element can ever cross the threshold: everything lands in
            # the final "unification" bucket (defensive; unreachable for
            # thresholds in (0, 1] on complete datasets).
            return Ranking([list(weights.elements)])
        emission_rounds = np.partition(positions, q - 1, axis=0)[q - 1]
        buckets: list[list[Element]] = []
        for round_index in np.unique(emission_rounds):
            members = np.flatnonzero(emission_rounds == round_index)
            buckets.append([weights.elements[i] for i in members])
        return Ranking(buckets)
