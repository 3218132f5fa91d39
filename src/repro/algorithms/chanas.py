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

The sort pass keeps the permutation as a dense index vector and applies
every insertion move with vectorised delete/insert; cost ties go to the
first (earliest) insertion point.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from ..core.kemeny import generalized_kemeny_score_from_weights
from ..core.pairwise import PairwiseWeights
from ..core.ranking import Ranking
from ..datasets.dataset import Dataset
from .anytime import AnytimeController, dataset_label, resolve_weights
from .base import RankAggregator
from .borda import borda_scores_from_weights

__all__ = ["Chanas", "ChanasBoth"]


class Chanas(RankAggregator):
    """Alternate insertion-sort improvement passes and permutation reversal."""

    name = "Chanas"
    family = "K"
    approximation = None
    produces_ties = False
    accounts_for_tie_cost = False
    randomized = False

    def __init__(self, *, max_rounds: int = 50, seed: int | None = None):
        super().__init__(seed=seed)
        self._max_rounds = max_rounds

    # ------------------------------------------------------------------ #
    def _aggregate(
        self, rankings: Sequence[Ranking], weights: PairwiseWeights
    ) -> Ranking:
        order = self._initial_order(rankings, weights)
        cost_before = weights.cost_before()
        improved_order = self._chanas_procedure(order, cost_before)
        return Ranking.from_permutation([weights.elements[i] for i in improved_order])

    def _initial_order(
        self, rankings: Sequence[Ranking], weights: PairwiseWeights
    ) -> list[int]:
        scores = borda_scores_from_weights(weights)
        ordered = sorted(weights.elements, key=lambda element: scores[element])
        return [weights.index_of[element] for element in ordered]

    # ------------------------------------------------------------------ #
    # Anytime protocol (see repro.algorithms.anytime)
    # ------------------------------------------------------------------ #
    def begin_anytime(
        self,
        dataset: Dataset | Sequence[Ranking],
        weights: PairwiseWeights | None = None,
        *,
        initial: Ranking | None = None,
    ) -> AnytimeController:
        """Start an incremental search over ``dataset``.

        Each :meth:`AnytimeController.step` advances the search by one
        Chanas round (one sort-to-fixpoint pass); the candidate sequence is
        the trajectory :meth:`aggregate` walks, so the controller's final
        best equals the batch result.  Pre-computed ``weights`` may be
        passed to skip the pairwise construction.  A warm-start ``initial``
        consensus (ties broken into a permutation) is searched first, the
        regular Borda trajectory after — the completed best is never worse
        than a cold run's.
        """
        rankings = self._validate(dataset)
        weights = resolve_weights(dataset, rankings, weights)
        return AnytimeController(
            self.name,
            self._anytime_candidates(rankings, weights, initial=initial),
            weights,
            dataset_name=dataset_label(dataset),
        )

    def _warm_order(self, initial: Ranking, weights: PairwiseWeights) -> list[int]:
        """Index permutation of a warm-start consensus (ties broken)."""
        permutation = initial.break_ties()
        return [weights.index_of[element] for element in permutation.elements()]

    def _anytime_candidates(
        self,
        rankings: Sequence[Ranking],
        weights: PairwiseWeights,
        initial: Ranking | None = None,
    ) -> Iterator[Ranking]:
        """Candidate stream: the Borda start, then each round's permutation
        (preceded by the warm-start trajectory when ``initial`` is given)."""
        cost_before = weights.cost_before()
        orders = [self._initial_order(rankings, weights)]
        if initial is not None:
            orders.insert(0, self._warm_order(initial, weights))
        for order in orders:
            for candidate in self._chanas_rounds(order, cost_before):
                yield Ranking.from_permutation(
                    [weights.elements[i] for i in candidate]
                )

    # ------------------------------------------------------------------ #
    def _chanas_procedure(
        self, order: list[int], cost_before: np.ndarray
    ) -> list[int]:
        """Alternate sort passes and reversals until no improvement.

        Returns the best permutation over the rounds (costs strictly
        decrease while rounds are kept, so the best is the last improving
        round — or the starting order when no round improves).
        """
        best: list[int] | None = None
        best_cost: int | None = None
        for candidate in self._chanas_rounds(order, cost_before):
            cost = _permutation_cost(candidate, cost_before)
            if best_cost is None or cost < best_cost:
                best, best_cost = list(candidate), cost
        assert best is not None
        return best

    def _chanas_rounds(
        self, order: list[int], cost_before: np.ndarray
    ) -> Iterator[list[int]]:
        """Yield the starting order, then the result of each Chanas round.

        A round is one sort-to-fixpoint pass; the alternation reverses the
        permutation between rounds and stops once a round no longer
        improves on the best cost so far — the same trajectory the batch
        procedure walks.
        """
        current = list(order)
        best_cost = _permutation_cost(current, cost_before)
        yield list(current)
        for _ in range(self._max_rounds):
            current = _sort_pass_to_fixpoint(current, cost_before)
            cost = _permutation_cost(current, cost_before)
            yield list(current)
            if cost < best_cost:
                best_cost = cost
            else:
                break
            current = list(reversed(current))


class ChanasBoth(Chanas):
    """Chanas restarted from every input ranking and the Borda order."""

    name = "ChanasBoth"

    def _anytime_candidates(
        self,
        rankings: Sequence[Ranking],
        weights: PairwiseWeights,
        initial: Ranking | None = None,
    ) -> Iterator[Ranking]:
        """Candidate stream: every start's rounds (warm-start ``initial``
        first when given, then Borda, then the inputs)."""
        cost_before = weights.cost_before()
        starts = self._starts(rankings, weights)
        if initial is not None:
            starts.insert(0, self._warm_order(initial, weights))
        for start in starts:
            for candidate in self._chanas_rounds(start, cost_before):
                yield Ranking.from_permutation(
                    [weights.elements[i] for i in candidate]
                )

    def _starts(
        self, rankings: Sequence[Ranking], weights: PairwiseWeights
    ) -> list[list[int]]:
        """Starting permutations: the Borda order, then every input (untied)."""
        starts: list[list[int]] = [self._initial_order(rankings, weights)]
        for ranking in rankings:
            permutation = ranking.break_ties()
            starts.append(
                [weights.index_of[element] for element in permutation.elements()]
            )
        return starts

    def _aggregate(
        self, rankings: Sequence[Ranking], weights: PairwiseWeights
    ) -> Ranking:
        cost_before = weights.cost_before()
        starts = self._starts(rankings, weights)
        best_ranking: Ranking | None = None
        best_score: int | None = None
        for start in starts:
            improved = self._chanas_procedure(start, cost_before)
            candidate = Ranking.from_permutation([weights.elements[i] for i in improved])
            score = generalized_kemeny_score_from_weights(candidate, weights)
            if best_score is None or score < best_score:
                best_ranking, best_score = candidate, score
        assert best_ranking is not None
        return best_ranking


# --------------------------------------------------------------------------- #
# Permutation-level helpers
# --------------------------------------------------------------------------- #
def _permutation_cost(order: Sequence[int], cost_before: np.ndarray) -> int:
    """Kendall-τ style cost of a permutation given the pairwise cost matrix."""
    indices = np.asarray(order, dtype=np.intp)
    matrix = cost_before[np.ix_(indices, indices)]
    return int(np.triu(matrix, k=1).sum())


def _sort_pass_to_fixpoint(order: list[int], cost_before: np.ndarray) -> list[int]:
    """Repeat insertion-improvement passes until no move reduces the cost.

    One pass considers each element in turn and moves it to the position
    (among all insertion points) that minimises its pairwise cost with the
    rest of the permutation — the classic "sort" operation of Chanas.

    The permutation lives in a dense index vector; the insertion-cost
    profile comes from two cumulative sums over the element's cost
    rows/columns (each gathered with one contiguous fancy-indexing), the
    element's removal is realised by dropping one prefix boundary from the
    full-permutation profile, and an accepted move rebuilds the vector with
    a single slice concatenation — no per-element Python list surgery.
    """
    current = np.asarray(order, dtype=np.intp)
    n = current.shape[0]
    # Row-major copies make both per-element gathers contiguous row reads.
    cost_after_rows = np.ascontiguousarray(cost_before.T)
    improved = True
    while improved:
        improved = False
        for position in range(n):
            element = current[position]
            # Gathers over the *full* permutation: the element's own cost
            # against itself is zero (zero-diagonal cost matrix), so the
            # without-element profile is recovered by dropping one prefix
            # boundary below instead of rebuilding the index vector.
            cost_if_after = cost_after_rows[element][current]   # other before element
            cost_if_before = cost_before[element][current]      # element before other
            prefix = np.concatenate(([0], np.cumsum(cost_if_after)))
            suffix = np.concatenate((np.cumsum(cost_if_before[::-1])[::-1], [0]))
            # costs[p] = insertion cost into the permutation without the
            # element, with rest[:p] before it; dropping entry position+1
            # of the full-profile sums realises the removal exactly.
            full_costs = prefix + suffix
            costs = np.concatenate((full_costs[: position + 1], full_costs[position + 2 :]))
            best_position = int(np.argmin(costs))
            if costs[best_position] < costs[position]:
                element_slice = current[position : position + 1]
                if best_position < position:
                    current = np.concatenate(
                        (
                            current[:best_position],
                            element_slice,
                            current[best_position:position],
                            current[position + 1 :],
                        )
                    )
                else:
                    current = np.concatenate(
                        (
                            current[:position],
                            current[position + 1 : best_position + 1],
                            element_slice,
                            current[best_position + 1 :],
                        )
                    )
                improved = True
    return [int(index) for index in current]

