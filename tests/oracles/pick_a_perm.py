"""Pick-a-Perm scoring one input ranking at a time."""

from __future__ import annotations

from collections.abc import Sequence

from repro.algorithms import PickAPerm
from repro.core import PairwiseWeights, Ranking
from repro.core.kemeny import generalized_kemeny_score_from_weights


class PickAPermOracle(PickAPerm):
    """:class:`~repro.algorithms.PickAPerm` scoring each candidate separately."""

    def _aggregate(
        self, rankings: Sequence[Ranking], weights: PairwiseWeights
    ) -> Ranking:
        if self._derandomized:
            scores = [
                generalized_kemeny_score_from_weights(candidate, weights)
                for candidate in rankings
            ]
            best_index = min(range(len(rankings)), key=scores.__getitem__)
            self._chosen_index = best_index
            return rankings[best_index]
        index = int(self._rng().integers(0, len(rankings)))
        self._chosen_index = index
        return rankings[index]
