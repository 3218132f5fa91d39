"""RepeatChoice replaying the per-element dictionary refinement."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.algorithms import RepeatChoice
from repro.core import Element, PairwiseWeights, Ranking
from repro.core.kemeny import generalized_kemeny_score_from_weights


class RepeatChoiceOracle(RepeatChoice):
    """:class:`~repro.algorithms.RepeatChoice` refining one run at a time."""

    def _aggregate(
        self, rankings: Sequence[Ranking], weights: PairwiseWeights
    ) -> Ranking:
        rng = self._rng()
        best: Ranking | None = None
        best_score: int | None = None
        for _ in range(self._num_repeats):
            candidate = _single_run(rankings, rng, self._keep_ties)
            score = generalized_kemeny_score_from_weights(candidate, weights)
            if best_score is None or score < best_score:
                best = candidate
                best_score = score
        assert best is not None
        return best


def _single_run(
    rankings: Sequence[Ranking], rng: np.random.Generator, keep_ties: bool
) -> Ranking:
    order = rng.permutation(len(rankings))
    start = rankings[order[0]]
    # A consensus bucket is represented by the list of refinement keys of
    # its elements: the tuple of positions in the rankings used so far.
    keys: dict[Element, tuple[int, ...]] = {
        element: (start.position_of(element),) for element in start.domain
    }
    for ranking_index in order[1:]:
        refiner = rankings[ranking_index]
        keys = {
            element: key + (refiner.position_of(element),)
            for element, key in keys.items()
        }
    buckets: dict[tuple[int, ...], list[Element]] = {}
    for element, key in keys.items():
        buckets.setdefault(key, []).append(element)
    ordered_keys = sorted(buckets)
    consensus = Ranking([buckets[key] for key in ordered_keys])
    if keep_ties:
        return consensus
    return consensus.break_ties()
