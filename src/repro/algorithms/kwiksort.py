"""KwikSort (Ailon, Charikar & Newman 2008), adapted to rankings with ties.

Divide-and-conquer Kendall-τ based algorithm (family [K], Section 3.2),
11/7-approximation when combined with Pick-a-Perm.  A pivot element is
chosen (at random) among the current elements; every other element is placed
*before*, *after* or — with the ties adaptation of Section 4.1.2 — *tied
with* the pivot, choosing for each element the relation that minimises its
pairwise disagreement with the pivot.  The algorithm then recurses on the
"before" and "after" groups.

The adaptation changes the complexity by a constant factor only; the cost of
(un)tying is taken into account in the per-element decision (Table 1:
"with slight modification" for both columns).

``num_repeats > 1`` yields the "KwikSortMin" variant of the paper's tables:
the randomized algorithm is run repeatedly and the best consensus (smallest
generalized Kemeny score) is kept.

Each recursion node places *all* of its elements against the pivot in one
vectorised comparison of the pairwise cost matrices.  The seeded generator
is consumed once per node (the pivot draw, before-group recursion first)
and cost ties prefer before → after → tied, so a seed fixes the output.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.kemeny import generalized_kemeny_scores_of_stack
from ..core.pairwise import PairwiseWeights
from ..core.ranking import Ranking
from .base import RankAggregator

__all__ = ["KwikSort"]


class KwikSort(RankAggregator):
    """Randomized pivot-based divide and conquer, with a 'tie with the pivot' branch."""

    name = "KwikSort"
    family = "K"
    approximation = "11/7"
    produces_ties = True
    accounts_for_tie_cost = True
    randomized = True

    def __init__(
        self,
        *,
        allow_ties: bool = True,
        num_repeats: int = 1,
        seed: int | None = None,
    ):
        """
        Parameters
        ----------
        allow_ties:
            When ``True`` (default) elements may be tied with the pivot; when
            ``False`` the original permutation-only algorithm is run (each
            element goes strictly before or after the pivot).
        num_repeats:
            Number of independent randomized runs; the best result is kept
            ("KwikSortMin" when greater than one).
        """
        super().__init__(seed=seed)
        if num_repeats < 1:
            raise ValueError(f"num_repeats must be >= 1, got {num_repeats}")
        self._allow_ties = allow_ties
        self._num_repeats = num_repeats
        if num_repeats > 1:
            self.name = "KwikSortMin"

    def _aggregate(
        self, rankings: Sequence[Ranking], weights: PairwiseWeights
    ) -> Ranking:
        """Run the repeats on index buckets, score them in one batched pass.

        Candidates stay dense position vectors until a winner is known —
        only the best repeat (first minimum) is materialised as a
        :class:`Ranking`.
        """
        rng = self._rng()
        n = weights.num_elements
        cost_before = weights.cost_before()
        cost_tied = weights.cost_tied()
        runs: list[list[list[int]]] = []
        stack = np.empty((self._num_repeats, n), dtype=np.int64)
        for repeat in range(self._num_repeats):
            index_buckets = self._kwiksort(
                list(range(n)), cost_before, cost_tied, rng
            )
            runs.append(index_buckets)
            for bucket_id, bucket in enumerate(index_buckets):
                stack[repeat, bucket] = bucket_id
        scores = generalized_kemeny_scores_of_stack(stack, weights)
        best = int(np.argmin(scores))  # first minimum
        return Ranking(
            [[weights.elements[i] for i in bucket] for bucket in runs[best]]
        )

    # Below this node size the vectorised placement loses to NumPy call
    # overhead; a scalar loop over the (memoized) cost matrices — the same
    # formulas, the same tie-breaking — takes over for the deep, small
    # recursion nodes.
    _VECTOR_NODE_MIN = 32

    def _kwiksort(
        self,
        elements: list[int],
        cost_before: np.ndarray,
        cost_tied: np.ndarray,
        rng: np.random.Generator,
    ) -> list[list[int]]:
        """Return the consensus buckets (index lists) for ``elements``.

        One pivot draw (``rng.integers``) per node with ≥ 2 elements,
        before-group recursion first.  ``cost_before[e, p]`` is the cost of
        placing ``e`` before the pivot ``p``, its transpose the cost of
        after, ``cost_tied`` the tying cost; cost ties prefer before →
        after → tied, which keeps the pivot bucket small so the recursion
        behaves like the original algorithm when the tie branch does not
        strictly help.  A large node decides every element at once from
        the cost matrices, falling back to a scalar scan under
        :data:`_VECTOR_NODE_MIN` elements.
        """
        if not elements:
            return []
        if len(elements) == 1:
            return [list(elements)]
        pivot = elements[int(rng.integers(0, len(elements)))]
        if len(elements) >= self._VECTOR_NODE_MIN:
            others = np.asarray(
                [element for element in elements if element != pivot], dtype=np.intp
            )
            node_before = cost_before[others, pivot]
            node_after = cost_before[pivot, others]
            if self._allow_ties:
                node_tied = cost_tied[others, pivot]
                best = np.minimum(np.minimum(node_before, node_after), node_tied)
                before_mask = node_before == best
                after_mask = ~before_mask & (node_after == best)
            else:
                before_mask = node_before <= node_after
                after_mask = ~before_mask
            tied_mask = ~(before_mask | after_mask)
            before = others[before_mask].tolist()
            after = others[after_mask].tolist()
            tied = [pivot, *others[tied_mask].tolist()]
        else:
            before, after, tied = [], [], [pivot]
            allow_ties = self._allow_ties
            # 1-D views of the pivot's column/row: scalar reads off a view
            # are markedly cheaper than 2-D tuple indexing in this loop.
            col_before = cost_before[:, pivot]
            row_before = cost_before[pivot]
            col_tied = cost_tied[:, pivot]
            for element in elements:
                if element == pivot:
                    continue
                place_before = col_before[element]
                place_after = row_before[element]
                if not allow_ties:
                    (before if place_before <= place_after else after).append(element)
                    continue
                place_tied = col_tied[element]
                best = min(place_before, place_after, place_tied)
                if place_before == best:
                    before.append(element)
                elif place_after == best:
                    after.append(element)
                else:
                    tied.append(element)
        result = self._kwiksort(before, cost_before, cost_tied, rng)
        result.append(tied)
        result.extend(self._kwiksort(after, cost_before, cost_tied, rng))
        return result
