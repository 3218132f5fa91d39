"""BioConsert with the per-start, list-of-buckets local search.

The library runs every start as one lane of a lockstep bucket-id array;
this oracle keeps the original shape: one start after another, each swept
over explicit bucket lists, the best local optimum kept with the earliest
start winning score ties.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.algorithms import BioConsert, BordaCount
from repro.core import PairwiseWeights, Ranking
from repro.core.kemeny import generalized_kemeny_score_from_weights


class BioConsertOracle(BioConsert):
    """:class:`~repro.algorithms.BioConsert` sweeping explicit bucket lists."""

    def _aggregate(
        self, rankings: Sequence[Ranking], weights: PairwiseWeights
    ) -> Ranking:
        cost_before = weights.cost_before().astype(np.int64)
        cost_tied = weights.cost_tied().astype(np.int64)

        starts: list[Ranking] = list(dict.fromkeys(rankings))
        if self._include_borda_start:
            starts.append(BordaCount().consensus(list(rankings)))

        best: Ranking | None = None
        best_score: int | None = None
        self._sweeps_used = 0
        self._starts_used = len(starts)
        for start in starts:
            candidate = self._local_search(start, weights, cost_before, cost_tied)
            score = generalized_kemeny_score_from_weights(candidate, weights)
            if best_score is None or score < best_score:
                best = candidate
                best_score = score
        assert best is not None
        return best

    def _local_search(
        self,
        start: Ranking,
        weights: PairwiseWeights,
        cost_before: np.ndarray,
        cost_tied: np.ndarray,
    ) -> Ranking:
        candidate = start
        for candidate in self._list_sweeps(start, weights, cost_before, cost_tied):
            pass
        return candidate

    def _sweep_candidates(
        self, start: Ranking, weights: PairwiseWeights, rows: np.ndarray
    ) -> Iterator[tuple[Ranking, int]]:
        """The anytime and refinement paths, on the list-of-buckets sweep,
        each candidate with its score."""
        for candidate in self._list_sweeps(
            start,
            weights,
            weights.cost_before().astype(np.int64),
            weights.cost_tied().astype(np.int64),
        ):
            yield candidate, generalized_kemeny_score_from_weights(candidate, weights)

    def _list_sweeps(
        self,
        start: Ranking,
        weights: PairwiseWeights,
        cost_before: np.ndarray,
        cost_tied: np.ndarray,
    ) -> Iterator[Ranking]:
        """Yield ``start``, then the candidate after each improvement sweep."""
        index_of = weights.index_of
        elements = weights.elements
        n = len(elements)
        # buckets as lists of element indices, in consensus order.
        buckets: list[list[int]] = [
            [index_of[element] for element in bucket] for bucket in start.buckets
        ]

        yield start
        for _ in range(self._max_sweeps):
            improved = False
            for x in range(n):
                if _try_improve_element(x, buckets, cost_before, cost_tied):
                    improved = True
            self._sweeps_used += 1
            yield Ranking(
                [[elements[i] for i in bucket] for bucket in buckets if bucket]
            )
            if not improved:
                break


def _try_improve_element(
    x: int,
    buckets: list[list[int]],
    cost_before: np.ndarray,
    cost_tied: np.ndarray,
) -> bool:
    """Evaluate every placement of ``x``; apply the best strictly improving one.

    Rebuilds the without-x bucket lists explicitly.
    """
    current_bucket_index = _find_bucket(buckets, x)
    was_alone = len(buckets[current_bucket_index]) == 1

    # Structure without x (empty buckets dropped).
    others: list[list[int]] = []
    current_position_without_x: int | None = None
    for index, bucket in enumerate(buckets):
        remaining = [y for y in bucket if y != x] if index == current_bucket_index else bucket
        if remaining:
            others.append(remaining)
        if index == current_bucket_index:
            current_position_without_x = len(others) - (0 if was_alone else 1)
    num_buckets = len(others)

    # Per-bucket pair-cost sums for x.
    to_x = np.empty(num_buckets, dtype=np.int64)   # cost(bucket before x)
    from_x = np.empty(num_buckets, dtype=np.int64)  # cost(x before bucket)
    tie_x = np.empty(num_buckets, dtype=np.int64)   # cost(x tied with bucket)
    for k, bucket in enumerate(others):
        indices = np.asarray(bucket, dtype=np.intp)
        to_x[k] = cost_before[indices, x].sum()
        from_x[k] = cost_before[x, indices].sum()
        tie_x[k] = cost_tied[x, indices].sum()

    prefix_to_x = np.concatenate(([0], np.cumsum(to_x)))      # sum over buckets < k
    suffix_from_x = np.concatenate((np.cumsum(from_x[::-1])[::-1], [0]))  # sum over buckets >= k

    # Cost of tying x with bucket k.
    tie_costs = prefix_to_x[:num_buckets] + tie_x + suffix_from_x[1:]
    # Cost of placing x alone in a new bucket at insertion position p (0..num_buckets).
    new_costs = prefix_to_x + suffix_from_x

    # Current contribution of x.
    if was_alone:
        current_cost = int(new_costs[current_position_without_x])
    else:
        current_cost = int(tie_costs[current_position_without_x])

    best_tie = int(tie_costs.min()) if num_buckets else np.iinfo(np.int64).max
    best_new = int(new_costs.min())
    best_cost = min(best_tie, best_new)
    if best_cost >= current_cost:
        return False

    if best_tie <= best_new:
        target = int(np.argmin(tie_costs))
        others[target].append(x)
    else:
        position = int(np.argmin(new_costs))
        others.insert(position, [x])
    buckets[:] = others
    return True


def _find_bucket(buckets: list[list[int]], x: int) -> int:
    for index, bucket in enumerate(buckets):
        if x in bucket:
            return index
    raise ValueError(f"element index {x} not present in the candidate consensus")
