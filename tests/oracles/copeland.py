"""CopelandMethod scored by walking the bucket lists."""

from __future__ import annotations

from collections.abc import Sequence

from repro.algorithms import CopelandMethod
from repro.algorithms.copeland import copeland_pairwise_scores
from repro.core import Element, PairwiseWeights, Ranking


def copeland_scores(rankings: Sequence[Ranking]) -> dict[Element, float]:
    """Copeland score: sum over rankings of the number of elements placed after."""
    scores: dict[Element, float] = {}
    for ranking in rankings:
        total = len(ranking)
        elements_before = 0
        for bucket in ranking.buckets:
            elements_after = total - elements_before - len(bucket)
            for element in bucket:
                scores[element] = scores.get(element, 0.0) + elements_after
            elements_before += len(bucket)
    return scores


class CopelandMethodOracle(CopelandMethod):
    """:class:`~repro.algorithms.CopelandMethod` over :func:`copeland_scores`."""

    def _aggregate(
        self, rankings: Sequence[Ranking], weights: PairwiseWeights
    ) -> Ranking:
        if self._pairwise_victories:
            scores = copeland_pairwise_scores(weights)
        else:
            scores = copeland_scores(rankings)
        consensus = Ranking.from_scores(scores, reverse=True)
        if self._tie_equal_scores:
            return consensus
        return consensus.break_ties()
