"""Chanas and ChanasBoth local-search heuristics (permutations only).

Chanas & Kobylański (1996) proposed a local-search heuristic for the linear
ordering problem built on two operations applied to a permutation:

* **sort**: repeatedly sweep the permutation and move an element earlier
  (insertion moves) whenever doing so reduces the number of pairwise
  disagreements — iterated until a fixed point;
* **reverse**: reverse the current permutation (which keeps the fixed point
  property interesting: the reversed permutation can often be improved
  again).

The *Chanas* heuristic alternates ``sort`` and ``reverse`` until the score
stops improving.  *ChanasBoth* ([13], [31]) additionally runs the procedure
from both the identity-style starting points and keeps the best result; our
implementation starts from every input ranking (with ties broken) as well as
from the Borda order, which matches the spirit of the "both" variant used in
the experimental studies.

These algorithms are Kendall-τ based (family [K]) and cannot handle ties
(Table 1): inputs containing ties are accepted (the positions are read
through the generalized pairwise weights) but the output is always a
permutation and the cost of (un)tying is ignored during the search.

**The sort pass over a gap-cost table.**  The permutation is a dense index
vector, and next to it the pass keeps an int64 table of shape (n+1) × n:
``table[k, e]`` is element ``e``'s pairwise cost if it sat in gap ``k`` of
the current permutation.  One cumulative sum builds it per pass-to-fixpoint
call.  Positions are scanned in blocks of ``_SCAN_BLOCK``: one vectorised
test finds the first element of a block with a cheaper gap than its own,
and that element moves to its first (earliest) cheapest gap, so cost ties
go to the earliest insertion point.  A move updates only the gaps it
crosses, with one shifted-slice add of the moved element's cost-difference
row.  Elements without an improving move — most of them once the search
is warm — cost a share of one block test instead of a cost profile each.
The trajectory is exactly that of the element-by-element pass kept as the
test suite's oracle (``tests/oracles/chanas.py``).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from ..core.pairwise import PairwiseWeights
from ..core.ranking import Ranking
from .anytime import AnytimeAggregator, ScoredCandidate
from .borda import borda_scores_from_weights

__all__ = ["Chanas", "ChanasBoth"]


class Chanas(AnytimeAggregator):
    """Alternate insertion-sort improvement passes and permutation reversal."""

    name = "Chanas"
    family = "K"
    approximation = None
    produces_ties = False
    accounts_for_tie_cost = False
    randomized = False

    def __init__(self, *, max_rounds: int = 50, seed: int | None = None):
        """
        Parameters
        ----------
        max_rounds:
            Cap on the number of sort-to-fixpoint rounds per starting order
            (the alternation stops earlier once a round no longer improves).
            An ``int`` ≥ 0.
        """
        if isinstance(max_rounds, bool) or not isinstance(max_rounds, int) or max_rounds < 0:
            raise ValueError(f"max_rounds must be an int >= 0, got {max_rounds!r}")
        super().__init__(seed=seed)
        self._max_rounds = max_rounds

    def _starts(
        self, rankings: Sequence[Ranking], weights: PairwiseWeights
    ) -> list[list[int]]:
        """Starting permutations: the Borda order."""
        scores = borda_scores_from_weights(weights)
        ordered = sorted(weights.elements, key=lambda element: scores[element])
        return [[weights.index_of[element] for element in ordered]]

    def _anytime_candidates(
        self,
        rankings: Sequence[Ranking],
        weights: PairwiseWeights,
        initial: Ranking | None = None,
    ) -> Iterator[ScoredCandidate]:
        """Candidate stream: every start's rounds, one Chanas round (one
        sort-to-fixpoint pass) per step; a warm-start ``initial`` (ties
        broken into a permutation) comes first.

        A permutation's cost under ``cost_before`` is exactly its
        generalized Kemeny score, so each round is scored once, here.
        """
        cost_before = weights.cost_before()
        starts = self._starts(rankings, weights)
        if initial is not None:
            starts.insert(0, _untied_order(initial, weights))
        for start in starts:
            for order, cost in self._chanas_rounds(start, cost_before):
                yield Ranking.from_permutation([weights.elements[i] for i in order]), cost

    def _chanas_rounds(
        self, order: list[int], cost_before: np.ndarray
    ) -> Iterator[tuple[list[int], int]]:
        """Yield the starting order, then the result of each Chanas round,
        each with its cost.

        A round is one sort-to-fixpoint pass; the alternation reverses the
        permutation between rounds and stops once a round no longer
        improves on the best cost so far.
        """
        current = list(order)
        best_cost = _permutation_cost(current, cost_before)
        yield current, best_cost
        for _ in range(self._max_rounds):
            current = _sort_pass_to_fixpoint(current, cost_before)
            cost = _permutation_cost(current, cost_before)
            yield current, cost
            if cost >= best_cost:
                break
            best_cost = cost
            current = current[::-1]


class ChanasBoth(Chanas):
    """Chanas restarted from every input ranking and the Borda order."""

    name = "ChanasBoth"

    def _starts(
        self, rankings: Sequence[Ranking], weights: PairwiseWeights
    ) -> list[list[int]]:
        """Starting permutations: the Borda order, then every input (untied)."""
        return super()._starts(rankings, weights) + [
            _untied_order(ranking, weights) for ranking in rankings
        ]


# --------------------------------------------------------------------------- #
# Permutation-level helpers
# --------------------------------------------------------------------------- #
# Positions tested per vectorised step of the sort pass's scan.
_SCAN_BLOCK = 32


def _untied_order(ranking: Ranking, weights: PairwiseWeights) -> list[int]:
    """Index permutation of ``ranking`` with its ties broken."""
    return [weights.index_of[element] for element in ranking.break_ties().elements()]


def _permutation_cost(order: Sequence[int], cost_before: np.ndarray) -> int:
    """Kendall-τ style cost of a permutation given the pairwise cost matrix."""
    indices = np.asarray(order, dtype=np.intp)
    matrix = cost_before[np.ix_(indices, indices)]
    return int(np.triu(matrix, k=1).sum())


def _sort_pass_to_fixpoint(order: list[int], cost_before: np.ndarray) -> list[int]:
    """Repeat insertion-improvement passes until no move reduces the cost.

    One pass considers each element in turn and moves it to the position
    (among all insertion points) that minimises its pairwise cost with the
    rest of the permutation — the classic "sort" operation of Chanas.  Cost
    ties go to the first (earliest) insertion point.

    The pass runs on a gap-cost table ``table[k, e]``: the pairwise cost of
    element ``e`` if it sat in gap ``k`` (before position ``k``) of the
    current permutation, built once per call from one cumulative sum.  The
    element at position ``q`` sits in both gaps ``q`` and ``q + 1`` (its
    cost against itself is zero), so its insertion profile over the rest of
    the permutation is its column without row ``q + 1``.  Positions are
    scanned ``_SCAN_BLOCK`` at a time: one gather tests "best gap < own
    gap" for the whole block, and the scan jumps to the first element with
    an improving move.  Moving ``y`` from position ``q`` to ``b`` changes
    only the gaps it crosses, each by the row ``shift[y]``: one shifted
    slice add on the table and one slice shift on the permutation.
    """
    current = np.array(order, dtype=np.intp)
    n = current.shape[0]
    # shift[y, e]: change of e's gap cost when y leaves the prefix before
    # that gap (e no longer pays for y before it, pays for y after it).
    shift = cost_before.T - cost_before
    table = np.empty((n + 1, n), dtype=np.int64)
    table[0] = cost_before.sum(axis=1)  # gap 0: every element after e
    np.cumsum(-shift[current], axis=0, out=table[1:])
    table[1:] += table[0]
    offsets = np.arange(_SCAN_BLOCK)
    improved = True
    while improved:
        improved = False
        position = 0
        while position < n:
            block = current[position : position + _SCAN_BLOCK]
            width = block.shape[0]
            gaps = table[:, block]
            columns = offsets[:width]
            own = gaps[columns + position, columns]
            movers = np.flatnonzero(gaps.min(axis=0) < own)
            if movers.shape[0] == 0:
                position += width
                continue
            index = int(movers[0])
            source = position + index
            element = int(block[index])
            # First minimum over all n + 1 gaps; never the element's own
            # gaps source/source+1, whose cost is above the minimum.
            target = int(gaps[:, index].argmin())
            if target < source:
                table[target + 1 : source + 1] = table[target:source] - shift[element]
                current[target + 1 : source + 1] = current[target:source]
                current[target] = element
            else:
                target -= 1  # insertion point counted without the element
                table[source + 1 : target + 1] = table[source + 2 : target + 2] + shift[element]
                current[source:target] = current[source + 1 : target + 1]
                current[target] = element
            improved = True
            position = source + 1
    return [int(index) for index in current]
