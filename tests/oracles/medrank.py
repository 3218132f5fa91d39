"""MEDRank replaying the round-by-round parallel reading."""

from __future__ import annotations

from collections.abc import Sequence

from repro.algorithms import MEDRank
from repro.core import Element, PairwiseWeights, Ranking


class MEDRankOracle(MEDRank):
    """:class:`~repro.algorithms.MEDRank` reading the rankings bucket by bucket."""

    def _aggregate(
        self, rankings: Sequence[Ranking], weights: PairwiseWeights
    ) -> Ranking:
        num_rankings = len(rankings)
        required = self._threshold * num_rankings
        seen_counts: dict[Element, int] = {}
        emitted: set[Element] = set()
        consensus_buckets: list[list[Element]] = []

        max_rounds = max(ranking.num_buckets for ranking in rankings)
        for round_index in range(max_rounds):
            newly_emitted: list[Element] = []
            for ranking in rankings:
                if round_index >= ranking.num_buckets:
                    continue
                for element in ranking.buckets[round_index]:
                    seen_counts[element] = seen_counts.get(element, 0) + 1
                    if element not in emitted and seen_counts[element] >= required:
                        emitted.add(element)
                        newly_emitted.append(element)
            if newly_emitted:
                consensus_buckets.append(sorted(newly_emitted, key=_element_key))

        # Elements that never reach the threshold (possible when the
        # threshold is larger than the fraction of rankings containing the
        # element's bucket rounds) are appended in a final bucket, mirroring
        # the unification convention.
        remaining = sorted(
            (element for element in rankings[0].domain if element not in emitted),
            key=_element_key,
        )
        if remaining:
            consensus_buckets.append(remaining)
        return Ranking(consensus_buckets)


def _element_key(element: Element) -> tuple[str, str]:
    return (type(element).__name__, repr(element))
