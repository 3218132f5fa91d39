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
for element ``x`` and every bucket ``B`` the per-bucket sums of
``cost(y before x)``, ``cost(x before y)`` and ``cost(x tied y)`` over
``y in B``, turned into prefix sums over buckets, give the cost of every
placement of ``x`` — joining bucket ``k`` or opening a new bucket at
insertion point ``p``.  A full sweep over the elements is O(n²), matching
the memory complexity O(n²) stated in the paper.

**Lanes.**  The searches from the S starting points run in lockstep as
the S *lanes* of one (S × n) array of bucket ids: ``pos[s, i]`` is the
bucket of element ``i`` in lane ``s``, bucket ids stay dense
(``0 .. count[s] - 1``) and ``stamp[s, i]`` records the arrival order of
``i`` in its bucket, which fixes the element order inside every
reconstructed bucket.  For element ``x`` a single ``np.bincount`` over
lane-offset ids segment-sums, for every active lane at once, three
channels: ``cost(y before x) - cost(x before y)``,
``cost(x tied y) - cost(y before x)`` and a row of ones (the bucket
sizes).  By linearity these are the per-bucket sums above recombined: a
cumulative sum of the first channel gives every placement cost up to a
per-lane constant, which changes no comparison.  Slots past a lane's
bucket count are masked for joining; the only other degenerate slots — a
lone ``x``'s own bucket and the insertion point right after it — cost
exactly as much as staying put or as an earlier slot, so the strict
improvement test and first-minimum rule never pick them.  Every lane's
move is then applied with masked vectorised updates (bucket removal,
insertion shift, new id and stamp), so a sweep pays NumPy call overhead
once per element, not once per element and start.

**Retirement and ties.**  A lane retires after a sweep without a move or
when it has used ``max_sweeps`` sweeps, so each lane follows exactly the
trajectory a lone search from its start would: elements in index order,
the first minimum wins cost ties, joining a bucket beats opening one on
equal cost, and a moved element arrives last in its bucket.  Among the
lanes' local optima the earliest start wins score ties.

**Anytime stays per start.**  The anytime stream (:meth:`begin_anytime`,
:meth:`anytime_refine`) and :meth:`refine_from` search one start at a
time, one sweep per step, on the same kernel with a single lane.  A
lockstep sweep is too coarse to be one anytime step: the first sweep over
50 lanes at m=50, n=200 takes 56–75 ms against 9–14 ms for one lane (one
core of a 2-vCPU VM), already past a 50 ms serving budget by itself.  So
BioConsert is the one anytime algorithm whose batch :meth:`aggregate`
does not drain its candidate stream; the test suite pins the lockstep
result to the drained stream's best.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from ..core.kemeny import (
    generalized_kemeny_score_from_weights,
    generalized_kemeny_scores_of_stack,
)
from ..core.pairwise import PairwiseWeights
from ..core.ranking import Ranking
from .anytime import AnytimeAggregator, ScoredCandidate
from .borda import BordaCount

__all__ = ["BioConsert"]


class BioConsert(AnytimeAggregator):
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
            decreases, but the cap bounds worst-case time).  An ``int`` ≥ 0.
        """
        if isinstance(max_sweeps, bool) or not isinstance(max_sweeps, int) or max_sweeps < 0:
            raise ValueError(f"max_sweeps must be an int >= 0, got {max_sweeps!r}")
        super().__init__(seed=seed)
        self._include_borda_start = include_borda_start
        self._max_sweeps = max_sweeps
        self._sweeps_used = 0
        self._starts_used = 0

    # ------------------------------------------------------------------ #
    def _starting_points(self, rankings: Sequence[Ranking]) -> list[Ranking]:
        starts: list[Ranking] = list(dict.fromkeys(rankings))
        if self._include_borda_start:
            starts.append(BordaCount().consensus(list(rankings)))
        return starts

    def _aggregate(
        self, rankings: Sequence[Ranking], weights: PairwiseWeights
    ) -> Ranking:
        starts = self._starting_points(rankings)
        lanes = _Lanes(starts, weights, _weight_rows(weights))
        lanes.run(self._max_sweeps)
        self._sweeps_used = int(lanes.final_sweeps.sum())
        self._starts_used = len(starts)
        # np.argmin returns the first minimum: the earliest start wins ties.
        best = int(np.argmin(generalized_kemeny_scores_of_stack(lanes.final_pos, weights)))
        return _reconstruct_ranking(
            lanes.final_pos[best], lanes.final_stamp[best], weights.elements
        )

    def refine_from(self, start: Ranking, weights: PairwiseWeights) -> Ranking:
        """Run the local search from an arbitrary starting consensus.

        Used by the chaining strategies of Section 8 (see
        :mod:`repro.algorithms.chained`): the result is never worse than
        ``start`` because every accepted move strictly decreases the score.
        """
        candidate = start
        for candidate, _ in self.anytime_refine(start, weights):
            pass
        return candidate

    # ------------------------------------------------------------------ #
    # Anytime protocol (see repro.algorithms.anytime)
    # ------------------------------------------------------------------ #
    def anytime_refine(
        self, start: Ranking, weights: PairwiseWeights
    ) -> Iterator[ScoredCandidate]:
        """Incremental form of :meth:`refine_from` (one sweep per item).

        Yields ``start`` first, then the candidate after each improvement
        sweep, each with its score; used by the chained aggregators'
        anytime path.
        """
        return self._sweep_candidates(start, weights, _weight_rows(weights))

    def _anytime_candidates(
        self,
        rankings: Sequence[Ranking],
        weights: PairwiseWeights,
        initial: Ranking | None = None,
    ) -> Iterator[ScoredCandidate]:
        """Candidate stream: every start's trajectory, one sweep per step,
        each start along the trajectory its lane follows in
        :meth:`aggregate`.

        A warm-start ``initial`` is searched first (its trajectory usually
        reconverges within a couple of sweeps when the dataset changed only
        slightly); the cold starts follow unchanged.
        """
        rows = _weight_rows(weights)
        starts = self._starting_points(rankings)
        if initial is not None:
            starts.insert(0, initial)
        self._sweeps_used = 0
        self._starts_used = len(starts)
        for start in starts:
            yield from self._sweep_candidates(start, weights, rows)

    def _sweep_candidates(
        self, start: Ranking, weights: PairwiseWeights, rows: np.ndarray
    ) -> Iterator[ScoredCandidate]:
        """Yield ``start``, then the candidate after each improvement sweep,
        each with its score.

        One lane of the lockstep kernel; ``rows`` is :func:`_weight_rows`.
        """
        lane = _Lanes([start], weights, rows)
        yield start, generalized_kemeny_score_from_weights(start, weights)
        for _ in range(self._max_sweeps):
            improved = lane.sweep()
            self._sweeps_used += 1
            candidate = _reconstruct_ranking(lane.pos[0], lane.stamp[0], weights.elements)
            yield candidate, generalized_kemeny_score_from_weights(candidate, weights)
            if not improved[0]:
                break

    def _last_details(self) -> dict[str, object]:
        return {"sweeps": self._sweeps_used, "starting_points": self._starts_used}


def _weight_rows(weights: PairwiseWeights) -> np.ndarray:
    """Per-element ``np.bincount`` weights of the lane kernel, shape (n, 3, n).

    ``rows[x]`` holds, for every element ``y``, ``cost(y before x) -
    cost(x before y)``, ``cost(x tied y) - cost(y before x)`` and ``1``.
    float64 is an exact carrier for the integer costs (< 2**53) and is what
    ``np.bincount``'s weighted segment sums operate on natively.  ``x``'s
    own entries are zero in the cost channels (zero-diagonal matrices).
    """
    cost_before = weights.cost_before()
    cost_tied = weights.cost_tied()
    n = cost_before.shape[0]
    rows = np.empty((n, 3, n))
    np.subtract(cost_before.T, cost_before, out=rows[:, 0, :], casting="unsafe")
    np.subtract(cost_tied, cost_before.T, out=rows[:, 1, :], casting="unsafe")
    rows[:, 2, :] = 1.0
    return rows


class _Lanes:
    """Candidate consensuses searched in lockstep, one per lane.

    The active lanes are the rows of ``pos`` (bucket ids), ``stamp``
    (arrival order inside a bucket), ``counts`` (number of buckets),
    ``next_stamp`` and ``sweeps``; ``lanes`` maps each row to its start's
    index.  :meth:`run` moves every retiring lane's state into the
    start-indexed ``final_pos``, ``final_stamp`` and ``final_sweeps``.
    """

    def __init__(
        self, starts: Sequence[Ranking], weights: PairwiseWeights, rows: np.ndarray
    ):
        index_of = weights.index_of
        num_starts = len(starts)
        n = len(weights.elements)
        self.n = n
        self.width = n + 1  # a lane has at most n buckets, plus the end slot
        self.rows = rows
        self.pos = np.empty((num_starts, n), dtype=np.int64)
        self.stamp = np.empty((num_starts, n), dtype=np.int64)
        for lane, start in enumerate(starts):
            pos = self.pos[lane]
            stamp = self.stamp[lane]
            arrival = 0
            for bucket_index, bucket in enumerate(start.buckets):
                for element in bucket:
                    pos[index_of[element]] = bucket_index
                    stamp[index_of[element]] = arrival
                    arrival += 1
        self.counts = np.array([len(start.buckets) for start in starts], dtype=np.int64)
        self.next_stamp = np.full(num_starts, n, dtype=np.int64)
        self.sweeps = np.zeros(num_starts, dtype=np.int64)
        self.lanes = np.arange(num_starts)
        self.final_pos = np.empty_like(self.pos)
        self.final_stamp = np.empty_like(self.stamp)
        self.final_sweeps = np.zeros(num_starts, dtype=np.int64)
        self._allocate()

    def _allocate(self) -> None:
        """(Re)build the buffers sized by the number of active lanes."""
        active, n, width = len(self.lanes), self.n, self.width
        # Lane s, channel c sums into bincount slots [(3s + c)·W, (3s + c + 1)·W).
        self.offsets = (np.arange(3 * active, dtype=np.int64) * width).reshape(
            active, 3, 1
        )
        self.ids = np.empty((active, 3, n), dtype=np.int64)
        self.weights = np.empty((active, 3, n))
        # Per lane: the cost of joining buckets 0 .. W-1, then of opening a
        # new bucket at insertion points 0 .. W-1 (points past the bucket
        # count repeat the cost of the last valid one).
        self.costs = np.empty((active, 2 * width))
        self.row_index = np.arange(active)
        self.invalid_joins = np.arange(width) >= self.counts[:, None]

    def run(self, max_sweeps: int) -> None:
        """Sweep every lane in lockstep until each has retired.

        A lane retires after a sweep without a move or once it has run
        ``max_sweeps`` sweeps.
        """
        done = np.ones(len(self.lanes), dtype=bool)
        while len(self.lanes):
            if max_sweeps:
                done = ~self.sweep() | (self.sweeps >= max_sweeps)
            if done.any():
                self._retire(done)

    def _retire(self, done: np.ndarray) -> None:
        retired = self.lanes[done]
        self.final_pos[retired] = self.pos[done]
        self.final_stamp[retired] = self.stamp[done]
        self.final_sweeps[retired] = self.sweeps[done]
        keep = ~done
        self.pos = self.pos[keep]
        self.stamp = self.stamp[keep]
        self.counts = self.counts[keep]
        self.next_stamp = self.next_stamp[keep]
        self.sweeps = self.sweeps[keep]
        self.lanes = self.lanes[keep]
        self._allocate()

    def sweep(self) -> np.ndarray:
        """One improvement sweep of every active lane; which lanes moved."""
        pos, stamp, counts, next_stamp = self.pos, self.stamp, self.counts, self.next_stamp
        rows, ids, weights, offsets = self.rows, self.ids, self.weights, self.offsets
        costs, row_index, invalid_joins = self.costs, self.row_index, self.invalid_joins
        width = self.width
        active = len(self.lanes)
        minlength = 3 * active * width
        flat_ids = ids.reshape(-1)
        flat_weights = weights.reshape(-1)
        join = costs[:, :width]
        new = costs[:, width:]
        pos_rows = pos[:, None, :]
        slots = np.arange(width)
        improved = np.zeros(active, dtype=bool)
        for x in range(self.n):
            np.add(pos_rows, offsets, out=ids)
            weights[...] = rows[x]
            sums = np.bincount(
                flat_ids, weights=flat_weights, minlength=minlength
            ).reshape(active, 3, width)
            delta = sums[:, 0]
            prefix = delta.cumsum(axis=1)
            np.add(prefix, sums[:, 1], out=join)
            np.putmask(join, invalid_joins, np.inf)
            np.subtract(prefix, delta, out=new)
            current = pos[:, x].copy()
            moving = costs.min(axis=1) < join[row_index, current]
            if not moving.any():
                continue

            choice = costs.argmin(axis=1)  # first minimum; joins come first
            opens = choice >= width
            target = choice - width * opens
            # A lone x's bucket disappears (the ids above it shift down); a
            # new bucket shifts the ids at and after its insertion point.
            removed = np.where(moving & (sums[row_index, 2, current] == 1), current, width)
            inserted = np.where(moving & opens, target, width)
            target -= target > removed
            shift_up = pos >= inserted[:, None]
            pos -= pos > removed[:, None]
            pos += shift_up
            pos[:, x] = np.where(moving, target, current)
            stamp[:, x] = np.where(moving, next_stamp, stamp[:, x])
            next_stamp += moving
            counts += inserted < width
            counts -= removed < width
            np.greater_equal(slots, counts[:, None], out=invalid_joins)
            improved |= moving
        self.sweeps += 1
        return improved


def _reconstruct_ranking(
    pos: np.ndarray, stamp: np.ndarray, elements: Sequence[object]
) -> Ranking:
    """Rebuild a candidate Ranking from its bucket-id and stamp vectors.

    Groups by bucket, then by arrival stamp within the bucket, so every
    bucket lists its elements in arrival order.
    """
    n = len(elements)
    order = np.lexsort((stamp, pos))
    buckets = []
    boundary = 0
    for i in range(1, n + 1):
        if i == n or pos[order[i]] != pos[order[boundary]]:
            buckets.append([elements[j] for j in order[boundary:i]])
            boundary = i
    return Ranking(buckets)
