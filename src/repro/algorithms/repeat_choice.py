"""RepeatChoice (Ailon 2010), with the ties-preserving adaptation.

Kendall-τ based 2-approximation (family [K], Section 3.2), called *Ailon2*
in [12].  Starting from one input ranking, its buckets are refined by
breaking them according to the order of the elements in the other input
rankings, taken one after the other in random order, until every input
ranking has been used.

* In the original algorithm the remaining ties are then broken arbitrarily,
  producing a permutation.
* The ties adaptation of Section 4.1.2 simply skips that last step, so the
  pairs of elements tied in *every* input ranking remain tied in the output.

The paper evaluates the randomized algorithm through many runs and keeps the
best solution ("RepeatChoiceMin"); the :class:`RepeatChoice` class exposes a
``num_repeats`` parameter for that purpose and the registry provides both
configurations.

The successive refinements of a run amount to ordering the elements by the
lexicographic tuple of their positions in the (randomly ordered) input
rankings, so a run is one ``np.lexsort`` over the dataset's position
tensor.  Each run consumes the seeded generator once (one permutation).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.kemeny import generalized_kemeny_scores_of_stack
from ..core.pairwise import PairwiseWeights
from ..core.ranking import Element, Ranking
from .base import RankAggregator

__all__ = ["RepeatChoice"]


class RepeatChoice(RankAggregator):
    """Refine a start ranking with the orders of the other input rankings."""

    name = "RepeatChoice"
    family = "K"
    approximation = "2"
    produces_ties = True
    accounts_for_tie_cost = False
    randomized = True

    def __init__(
        self,
        *,
        keep_ties: bool = True,
        num_repeats: int = 1,
        seed: int | None = None,
    ):
        """
        Parameters
        ----------
        keep_ties:
            When ``True`` (default), remaining ties are kept (the adaptation
            of Section 4.1.2); when ``False``, they are broken arbitrarily
            and the output is a permutation, as in the original algorithm.
        num_repeats:
            Number of independent randomized runs; the best consensus (by
            generalized Kemeny score) is returned.  ``num_repeats > 1``
            corresponds to the "RepeatChoiceMin" rows of the paper's tables.
        """
        super().__init__(seed=seed)
        if num_repeats < 1:
            raise ValueError(f"num_repeats must be >= 1, got {num_repeats}")
        self._keep_ties = keep_ties
        self._num_repeats = num_repeats
        if num_repeats > 1:
            self.name = "RepeatChoiceMin"

    def _aggregate(
        self, rankings: Sequence[Ranking], weights: PairwiseWeights
    ) -> Ranking:
        """Run the repeats as position vectors, score them in one batch.

        The refinement keys of a run are the tuples of an element's
        positions in the rankings taken in random order; sorting the
        consensus buckets by those tuples is exactly a lexicographic sort
        of the tensor's columns, with bucket boundaries wherever two
        consecutive columns differ.  Candidates stay dense position
        vectors, and only the winning repeat (first minimum) is
        materialised as a :class:`Ranking`.
        """
        rng = self._rng()
        stack = np.empty((self._num_repeats, weights.num_elements), dtype=np.int64)
        for repeat in range(self._num_repeats):
            stack[repeat] = self._single_run(weights, rng)
        scores = generalized_kemeny_scores_of_stack(stack, weights)
        best = int(np.argmin(scores))
        return _ranking_from_positions(stack[best], weights.elements)

    def _single_run(
        self, weights: PairwiseWeights, rng: np.random.Generator
    ) -> np.ndarray:
        """One refinement run, returned as a dense bucket-position vector."""
        order = rng.permutation(weights.num_rankings)
        keys = weights.positions[order]
        # np.lexsort treats its *last* key as primary: reverse the rows so
        # the first drawn ranking dominates.
        sorted_columns = np.lexsort(keys[::-1])
        positions = np.empty(sorted_columns.size, dtype=np.int64)
        if self._keep_ties:
            ordered_keys = keys[:, sorted_columns]
            new_bucket = np.zeros(sorted_columns.size, dtype=np.int64)
            new_bucket[1:] = (ordered_keys[:, 1:] != ordered_keys[:, :-1]).any(axis=0)
            positions[sorted_columns] = np.cumsum(new_bucket)
        else:
            # break_ties() orders tied elements canonically — exactly the
            # (stable) lexsort order — so the permutation positions are the
            # sorted ranks themselves.
            positions[sorted_columns] = np.arange(sorted_columns.size)
        return positions

def _ranking_from_positions(
    positions: np.ndarray, elements: Sequence[Element]
) -> Ranking:
    """Rebuild a ranking from a dense bucket-position vector.

    Elements are grouped by position in ascending order; within a bucket
    they keep the canonical element order (ascending index).
    """
    order = np.argsort(positions, kind="stable")
    buckets: list[list[Element]] = []
    previous: int | None = None
    for index in order.tolist():
        position = int(positions[index])
        if position != previous:
            buckets.append([])
            previous = position
        buckets[-1].append(elements[index])
    return Ranking(buckets)
