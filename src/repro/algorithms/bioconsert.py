"""BioConsert (Cohen-Boulakia, Denise & Hamel 2011).

Local-search heuristic designed natively for rankings with ties (family [G],
Section 3.1) and the overall best performer of the paper's experiments.
Starting from a candidate consensus, it repeatedly applies the two edition
operations

1. *change bucket*: move an element into an already existing bucket;
2. *new bucket*: remove an element from its bucket and place it alone in a
   new bucket inserted at a given position;

as long as the generalized Kemeny score of the candidate decreases.  As in
the original paper, the search is restarted from every input ranking (each
input is a natural candidate consensus) and the best local optimum is
returned; an additional Borda-based starting point can be enabled.

Implementation notes
--------------------
The score delta of moving one element only involves the pairs containing
that element, so each candidate move is evaluated from the pairwise cost
matrices in O(number of buckets) after an O(n) preparation per element:
for element ``x`` and every bucket ``B`` we pre-compute

* ``sum_{y in B} cost(y before x)``  (cost if ``B`` ends up before ``x``),
* ``sum_{y in B} cost(x before y)``  (cost if ``B`` ends up after ``x``),
* ``sum_{y in B} cost(x tied y)``    (cost if ``x`` joins ``B``),

and prefix sums over buckets give every possible placement in O(k).  A full
sweep over the elements is therefore O(n²), matching the memory complexity
O(n²) stated in the paper.

The candidate consensus is kept as a dense int bucket-id vector; the
per-bucket sums above are segment sums computed by ``np.bincount`` over the
vector, bucket lookup is O(1), and a move renumbers buckets with vectorised
masked adds — no per-element Python scan, no bucket-list reconstruction.
Moves are evaluated element by element in index order and the first
minimum wins cost ties, so the search trajectory is deterministic.
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
from .borda import BordaCount

__all__ = ["BioConsert"]


class BioConsert(RankAggregator):
    """Local search over rankings with ties (move-to-bucket / move-to-new-bucket)."""

    name = "BioConsert"
    family = "G"
    approximation = "2"
    produces_ties = True
    accounts_for_tie_cost = True
    randomized = False

    def __init__(
        self,
        *,
        include_borda_start: bool = False,
        max_sweeps: int = 200,
        seed: int | None = None,
    ):
        """
        Parameters
        ----------
        include_borda_start:
            Also start the local search from the BordaCount consensus, in
            addition to the input rankings.
        max_sweeps:
            Safety cap on the number of full improvement sweeps per starting
            point (the search always terminates because the score strictly
            decreases, but the cap bounds worst-case time).
        """
        super().__init__(seed=seed)
        self._include_borda_start = include_borda_start
        self._max_sweeps = max_sweeps
        self._sweeps_used = 0
        self._starts_used = 0

    # ------------------------------------------------------------------ #
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

    def refine_from(self, start: Ranking, weights: PairwiseWeights) -> Ranking:
        """Run the local search from an arbitrary starting consensus.

        Used by the chaining strategies of Section 8 (see
        :mod:`repro.algorithms.chained`): the result is never worse than
        ``start`` because every accepted move strictly decreases the score.
        """
        cost_before = weights.cost_before().astype(np.int64)
        cost_tied = weights.cost_tied().astype(np.int64)
        return self._local_search(start, weights, cost_before, cost_tied)

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

        Each :meth:`AnytimeController.step` advances the search by one full
        improvement sweep (same trajectory as :meth:`aggregate`); the
        controller's best candidate is always a valid consensus.  Passing
        pre-computed ``weights`` skips the O(m·n²) pairwise construction
        (the portfolio scheduler shares one build across its racers).
        Passing an ``initial`` consensus warm-starts the search: its
        refinement trajectory runs first, with the regular cold starts
        still following, so the completed result is never worse than a
        cold run's.
        """
        rankings = self._validate(dataset)
        weights = resolve_weights(dataset, rankings, weights)
        return AnytimeController(
            self.name,
            self._anytime_candidates(rankings, weights, initial=initial),
            weights,
            dataset_name=dataset_label(dataset),
        )

    def anytime_refine(
        self, start: Ranking, weights: PairwiseWeights
    ) -> Iterator[Ranking]:
        """Incremental form of :meth:`refine_from` (one sweep per item).

        Yields ``start`` first, then the candidate after each improvement
        sweep; used by the chained aggregators' anytime path.
        """
        cost_before = weights.cost_before().astype(np.int64)
        cost_tied = weights.cost_tied().astype(np.int64)
        return self._sweep_candidates(start, weights, cost_before, cost_tied)

    def _anytime_candidates(
        self,
        rankings: Sequence[Ranking],
        weights: PairwiseWeights,
        initial: Ranking | None = None,
    ) -> Iterator[Ranking]:
        """Candidate stream: every start's trajectory, one sweep at a time.

        A warm-start ``initial`` is searched first (its trajectory usually
        reconverges within a couple of sweeps when the dataset changed only
        slightly); the cold starts follow unchanged.
        """
        cost_before = weights.cost_before().astype(np.int64)
        cost_tied = weights.cost_tied().astype(np.int64)
        starts: list[Ranking] = list(dict.fromkeys(rankings))
        if self._include_borda_start:
            starts.append(BordaCount().consensus(list(rankings)))
        if initial is not None:
            starts.insert(0, initial)
        self._sweeps_used = 0
        self._starts_used = len(starts)
        for start in starts:
            yield from self._sweep_candidates(start, weights, cost_before, cost_tied)

    # ------------------------------------------------------------------ #
    def _local_search(
        self,
        start: Ranking,
        weights: PairwiseWeights,
        cost_before: np.ndarray,
        cost_tied: np.ndarray,
    ) -> Ranking:
        candidate = start
        for candidate in self._sweep_candidates(start, weights, cost_before, cost_tied):
            pass
        return candidate

    def _sweep_candidates(
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
        # Candidate consensus as a dense bucket-id vector: pos[i] is the
        # bucket index of element i.  Bucket ids stay dense (0 .. k-1).
        # stamp[i] records the arrival order of element i in its current
        # bucket (start order first, then moved-in elements appended), which
        # fixes the element order inside every reconstructed bucket.
        pos = np.empty(n, dtype=np.int64)
        stamp = np.empty(n, dtype=np.int64)
        arrival = 0
        for bucket_index, bucket in enumerate(start.buckets):
            for element in bucket:
                pos[index_of[element]] = bucket_index
                stamp[index_of[element]] = arrival
                arrival += 1
        next_stamp = [arrival]
        sizes: list[int] = [len(bucket) for bucket in start.buckets]
        # float64 is an exact carrier for the integer costs (< 2**53) and is
        # what np.bincount's weighted segment sums operate on natively.
        cost_before_f = cost_before.astype(np.float64)
        cost_tied_f = cost_tied.astype(np.float64)

        yield start
        for _ in range(self._max_sweeps):
            improved = False
            for x in range(n):
                if self._try_improve_element(
                    x, pos, sizes, stamp, next_stamp, cost_before_f, cost_tied_f
                ):
                    improved = True
            self._sweeps_used += 1
            yield _reconstruct_ranking(pos, stamp, elements, n)
            if not improved:
                break

    def _try_improve_element(
        self,
        x: int,
        pos: np.ndarray,
        sizes: list[int],
        stamp: np.ndarray,
        next_stamp: list[int],
        cost_before: np.ndarray,
        cost_tied: np.ndarray,
    ) -> bool:
        """Evaluate every placement of ``x``; apply the best strictly improving one.

        Per-bucket pair-cost sums are ``np.bincount`` segment sums over the
        bucket-id vector; x's own contribution is zero (zero-diagonal cost
        matrices), so no exclusion pass is needed.  Cost ties go to the
        first minimum, and joining a bucket wins over opening a new one.
        """
        num_buckets = len(sizes)
        current = int(pos[x])
        was_alone = sizes[current] == 1

        to_x = np.bincount(pos, weights=cost_before[:, x], minlength=num_buckets)
        from_x = np.bincount(pos, weights=cost_before[x, :], minlength=num_buckets)
        tie_x = np.bincount(pos, weights=cost_tied[x, :], minlength=num_buckets)
        if was_alone:
            # x's singleton bucket disappears from the without-x structure.
            to_x = np.delete(to_x, current)
            from_x = np.delete(from_x, current)
            tie_x = np.delete(tie_x, current)
            num_buckets -= 1

        prefix_to_x = np.concatenate(([0.0], np.cumsum(to_x)))      # sum over buckets < k
        suffix_from_x = np.concatenate((np.cumsum(from_x[::-1])[::-1], [0.0]))  # >= k

        # Cost of tying x with bucket k / placing x alone at insertion p.
        tie_costs = prefix_to_x[:num_buckets] + tie_x + suffix_from_x[1:]
        new_costs = prefix_to_x + suffix_from_x

        if was_alone:
            current_cost = new_costs[current]
        else:
            current_cost = tie_costs[current]

        best_tie = tie_costs.min() if num_buckets else np.inf
        best_new = new_costs.min()
        if min(best_tie, best_new) >= current_cost:
            return False

        if was_alone:
            # Renumber the buckets after the removed singleton; x's own
            # entry equals `current` and is left untouched (overwritten below).
            np.subtract(pos, 1, out=pos, where=pos > current)
            del sizes[current]
        else:
            sizes[current] -= 1

        if best_tie <= best_new:
            target = int(np.argmin(tie_costs))
            pos[x] = target
            sizes[target] += 1
        else:
            insertion = int(np.argmin(new_costs))
            # Shift the buckets at/after the insertion point; x's stale
            # entry may shift too, but is overwritten right after.
            np.add(pos, 1, out=pos, where=pos >= insertion)
            pos[x] = insertion
            sizes.insert(insertion, 1)
        # x arrives last in its new bucket.
        stamp[x] = next_stamp[0]
        next_stamp[0] += 1
        return True

    def _last_details(self) -> dict[str, object]:
        return {"sweeps": self._sweeps_used, "starting_points": self._starts_used}


def _reconstruct_ranking(
    pos: np.ndarray, stamp: np.ndarray, elements: Sequence[object], n: int
) -> Ranking:
    """Rebuild the candidate Ranking from the dense bucket-id vector.

    Groups by bucket, then by arrival stamp within the bucket, so every
    bucket lists its elements in arrival order.
    """
    order = np.lexsort((stamp, pos))
    buckets = []
    boundary = 0
    for i in range(1, n + 1):
        if i == n or pos[order[i]] != pos[order[boundary]]:
            buckets.append([elements[j] for j in order[boundary:i]])
            boundary = i
    return Ranking(buckets)

