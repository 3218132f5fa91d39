"""Branch-and-bound for the permutation consensus (Ali & Meilă 2012 style).

Kendall-τ based exact algorithm (family [K], Section 3.2).  The search tree
is explored depth first: a node at depth ``j`` fixes the first ``j``
elements of the consensus permutation; its cost is the number of pairwise
disagreements already determined by that prefix (prefix-prefix pairs and
prefix-versus-remaining pairs), and a lower bound on the remaining pairs —
the sum over unordered remaining pairs of the cheaper of the two possible
orders — prunes the branches that cannot beat the incumbent.

As in the paper the algorithm is designed for permutations only: the
objective ignores the possibility of tying elements in the consensus (a
ranking-with-ties version would require a different algorithm, Section
4.1.2).  It can therefore be *optimal among permutations* while being worse
than the ties-aware exact algorithm on datasets whose optimal consensus
contains ties.

A ``beam_width`` parameter turns the exact search into the beam-search
heuristic recommended by [3] for larger instances: at every depth only the
``beam_width`` most promising prefixes are expanded.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.pairwise import PairwiseWeights
from ..core.ranking import Ranking
from .base import RankAggregator
from .borda import borda_scores_from_weights

__all__ = ["BranchAndBound"]


class BranchAndBound(RankAggregator):
    """Exact (or beam-limited) search over consensus permutations."""

    name = "BnB"
    family = "K"
    approximation = "exact"
    produces_ties = False
    accounts_for_tie_cost = False
    randomized = False

    def __init__(
        self,
        *,
        beam_width: int | None = None,
        max_nodes: int = 2_000_000,
        seed: int | None = None,
    ):
        """
        Parameters
        ----------
        beam_width:
            ``None`` (default) explores the full tree and returns an optimal
            consensus permutation; a positive integer keeps only the best
            ``beam_width`` prefixes per depth (beam-search heuristic).
        max_nodes:
            Safety cap on the number of expanded nodes for the exact search.
        """
        super().__init__(seed=seed)
        if beam_width is not None and beam_width < 1:
            raise ValueError(f"beam_width must be >= 1 or None, got {beam_width}")
        self._beam_width = beam_width
        self._max_nodes = max_nodes
        self._nodes_expanded = 0
        self._proved_optimal = False

    # ------------------------------------------------------------------ #
    def _aggregate(
        self, rankings: Sequence[Ranking], weights: PairwiseWeights
    ) -> Ranking:
        cost_before = weights.cost_before().astype(np.int64)
        n = weights.num_elements
        if self._beam_width is not None:
            order = self._beam_search(cost_before, n)
            self._proved_optimal = False
        else:
            order = self._exact_search(cost_before, n, weights)
        return Ranking.from_permutation([weights.elements[i] for i in order])

    # ------------------------------------------------------------------ #
    # Exact depth-first branch and bound
    # ------------------------------------------------------------------ #
    def _exact_search(
        self,
        cost_before: np.ndarray,
        n: int,
        weights: PairwiseWeights,
    ) -> list[int]:
        # Initial incumbent: Borda order (a decent permutation upper bound).
        scores = borda_scores_from_weights(weights)
        initial = sorted(range(n), key=lambda i: scores[weights.elements[i]])
        best_order = list(initial)
        best_cost = _prefix_cost(initial, cost_before)

        pair_minimum = np.minimum(cost_before, cost_before.T)

        self._nodes_expanded = 0
        self._proved_optimal = True

        def remaining_lower_bound(remaining: list[int]) -> int:
            if len(remaining) < 2:
                return 0
            indices = np.asarray(remaining, dtype=np.intp)
            sub = pair_minimum[np.ix_(indices, indices)]
            return int(np.triu(sub, k=1).sum())

        def depth_first(prefix: list[int], prefix_cost: int, remaining: list[int]) -> None:
            nonlocal best_order, best_cost
            self._nodes_expanded += 1
            if self._nodes_expanded > self._max_nodes:
                self._proved_optimal = False
                return
            if not remaining:
                if prefix_cost < best_cost:
                    best_cost = prefix_cost
                    best_order = list(prefix)
                return
            bound = prefix_cost + remaining_lower_bound(remaining)
            if bound >= best_cost:
                return
            # Expand children ordered by their incremental cost (cheapest first)
            # to find good incumbents early.
            increments = []
            remaining_array = np.asarray(remaining, dtype=np.intp)
            for position, candidate in enumerate(remaining):
                others = np.delete(remaining_array, position)
                increment = int(cost_before[candidate, others].sum())
                increments.append((increment, candidate, position))
            increments.sort()
            for increment, candidate, position in increments:
                next_remaining = remaining[:position] + remaining[position + 1:]
                depth_first(prefix + [candidate], prefix_cost + increment, next_remaining)

        depth_first([], 0, list(range(n)))
        return best_order

    # ------------------------------------------------------------------ #
    # Beam search heuristic
    # ------------------------------------------------------------------ #
    def _beam_search(self, cost_before: np.ndarray, n: int) -> list[int]:
        assert self._beam_width is not None
        beam: list[tuple[int, list[int], frozenset[int]]] = [(0, [], frozenset(range(n)))]
        self._nodes_expanded = 0
        for _ in range(n):
            children: list[tuple[int, list[int], frozenset[int]]] = []
            for cost, prefix, remaining in beam:
                remaining_list = sorted(remaining)
                remaining_array = np.asarray(remaining_list, dtype=np.intp)
                for position, candidate in enumerate(remaining_list):
                    others = np.delete(remaining_array, position)
                    increment = int(cost_before[candidate, others].sum())
                    children.append(
                        (cost + increment, prefix + [candidate], remaining - {candidate})
                    )
                    self._nodes_expanded += 1
            children.sort(key=lambda node: node[0])
            beam = children[: self._beam_width]
        return beam[0][1]

    def _last_details(self) -> dict[str, object]:
        return {
            "nodes_expanded": self._nodes_expanded,
            "proved_optimal": self._proved_optimal,
            "beam_width": self._beam_width,
        }


def _prefix_cost(order: Sequence[int], cost_before: np.ndarray) -> int:
    indices = np.asarray(order, dtype=np.intp)
    matrix = cost_before[np.ix_(indices, indices)]
    return int(np.triu(matrix, k=1).sum())
