"""KwikSort placing one element at a time through ``PairwiseWeights.pair_cost``."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.algorithms import KwikSort
from repro.core import Element, PairwiseWeights, Ranking
from repro.core.kemeny import generalized_kemeny_score_from_weights


class KwikSortOracle(KwikSort):
    """:class:`~repro.algorithms.KwikSort` recursing over element lists."""

    def _aggregate(
        self, rankings: Sequence[Ranking], weights: PairwiseWeights
    ) -> Ranking:
        rng = self._rng()
        best: Ranking | None = None
        best_score: int | None = None
        for _ in range(self._num_repeats):
            buckets = _kwiksort(list(weights.elements), weights, rng, self._allow_ties)
            candidate = Ranking(buckets)
            score = generalized_kemeny_score_from_weights(candidate, weights)
            if best_score is None or score < best_score:
                best = candidate
                best_score = score
        assert best is not None
        return best


def _kwiksort(
    elements: list[Element],
    weights: PairwiseWeights,
    rng: np.random.Generator,
    allow_ties: bool,
) -> list[list[Element]]:
    """Return the list of consensus buckets for ``elements``."""
    if not elements:
        return []
    if len(elements) == 1:
        return [list(elements)]
    pivot = elements[int(rng.integers(0, len(elements)))]
    before: list[Element] = []
    tied: list[Element] = [pivot]
    after: list[Element] = []
    for element in elements:
        if element == pivot:
            continue
        placement = _best_placement(element, pivot, weights, allow_ties)
        if placement == "before":
            before.append(element)
        elif placement == "after":
            after.append(element)
        else:
            tied.append(element)
    result = _kwiksort(before, weights, rng, allow_ties)
    result.append(tied)
    result.extend(_kwiksort(after, weights, rng, allow_ties))
    return result


def _best_placement(
    element: Element, pivot: Element, weights: PairwiseWeights, allow_ties: bool
) -> str:
    """Relation (before / after / tied) of ``element`` w.r.t. the pivot that
    minimises the pairwise disagreements with the input rankings."""
    cost_before = weights.pair_cost(element, pivot, "before")
    cost_after = weights.pair_cost(element, pivot, "after")
    if not allow_ties:
        return "before" if cost_before <= cost_after else "after"
    cost_tied = weights.pair_cost(element, pivot, "tied")
    best_cost = min(cost_before, cost_after, cost_tied)
    # Deterministic preference on cost ties: before, then after, then tied;
    # keeping the pivot bucket small makes recursion behave like the
    # original algorithm when the tie branch does not strictly help.
    if cost_before == best_cost:
        return "before"
    if cost_after == best_cost:
        return "after"
    return "tied"
