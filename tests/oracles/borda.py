"""BordaCount scored by walking the bucket lists."""

from __future__ import annotations

from collections.abc import Sequence

from repro.algorithms import BordaCount
from repro.core import Element, PairwiseWeights, Ranking


def borda_scores(rankings: Sequence[Ranking]) -> dict[Element, float]:
    """Borda score of every element: sum over rankings of (1 + #elements before)."""
    scores: dict[Element, float] = {}
    for ranking in rankings:
        elements_before = 0
        for bucket in ranking.buckets:
            position = elements_before + 1
            for element in bucket:
                scores[element] = scores.get(element, 0.0) + position
            elements_before += len(bucket)
    return scores


class BordaCountOracle(BordaCount):
    """:class:`~repro.algorithms.BordaCount` over :func:`borda_scores`."""

    def _aggregate(
        self, rankings: Sequence[Ranking], weights: PairwiseWeights
    ) -> Ranking:
        consensus = Ranking.from_scores(borda_scores(rankings))
        if self._tie_equal_scores:
            return consensus
        return consensus.break_ties()
