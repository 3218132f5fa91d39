"""Simulated annealing over rankings with ties.

Section 8 of the paper points out that "simulated annealing techniques are
known to produce high-quality consensus, but are time consuming" and
suggests chaining them after a cheaper algorithm.  This module implements
that annealing refiner so the chaining strategy (see
:mod:`repro.algorithms.chained`) can be reproduced and ablated.

The neighbourhood is the BioConsert edition neighbourhood (Section 3.1):
a move either inserts an element into an existing bucket or moves it alone
into a new bucket at a chosen position.  Moves are drawn uniformly at
random; a move with score delta ``d`` is accepted with probability 1 when
``d <= 0`` and ``exp(-d / T)`` otherwise, with a geometric cooling schedule
``T_{k+1} = cooling · T_k``.  The best ranking ever visited is returned, so
the algorithm can only improve on its starting point.

Complexity per move is O(number of buckets) thanks to the same per-bucket
prefix-sum trick used by BioConsert.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from ..core.kemeny import generalized_kemeny_score_from_weights
from ..core.pairwise import PairwiseWeights
from ..core.ranking import Ranking
from .anytime import AnytimeAggregator, ScoredCandidate
from .pick_a_perm import PickAPerm

__all__ = ["SimulatedAnnealing"]


class SimulatedAnnealing(AnytimeAggregator):
    """Anytime annealing refiner over the BioConsert move neighbourhood."""

    name = "SimulatedAnnealing"
    family = "G"
    approximation = None
    produces_ties = True
    accounts_for_tie_cost = True
    randomized = True

    def __init__(
        self,
        *,
        initial_temperature: float = 2.0,
        cooling: float = 0.995,
        moves_per_temperature: int | None = None,
        min_temperature: float = 1e-3,
        max_moves: int = 50_000,
        seed: int | None = None,
    ):
        """
        Parameters
        ----------
        initial_temperature:
            Starting temperature, in units of score delta.
        cooling:
            Geometric cooling factor applied after every temperature plateau.
        moves_per_temperature:
            Number of proposed moves per plateau; defaults to the number of
            elements.
        min_temperature:
            The schedule stops once the temperature drops below this value.
        max_moves:
            Hard cap on the total number of proposed moves.
        """
        super().__init__(seed=seed)
        if not 0.0 < cooling < 1.0:
            raise ValueError(f"cooling must be in (0, 1), got {cooling}")
        if initial_temperature <= 0:
            raise ValueError("initial_temperature must be positive")
        self._initial_temperature = initial_temperature
        self._cooling = cooling
        self._moves_per_temperature = moves_per_temperature
        self._min_temperature = min_temperature
        self._max_moves = max_moves
        self._moves_proposed = 0
        self._moves_accepted = 0

    # ------------------------------------------------------------------ #
    def refine_from(self, start: Ranking, weights: PairwiseWeights) -> Ranking:
        """Refine an existing consensus; the result is never worse than ``start``."""
        candidate = start
        for candidate, _ in self.anytime_refine(start, weights):
            pass
        return candidate

    # ------------------------------------------------------------------ #
    # Anytime protocol (see repro.algorithms.anytime)
    # ------------------------------------------------------------------ #
    def _anytime_candidates(
        self,
        rankings: Sequence[Ranking],
        weights: PairwiseWeights,
        initial: Ranking | None = None,
    ) -> Iterator[ScoredCandidate]:
        """Candidate stream: the Pick-a-Perm start (or the warm-start
        ``initial`` when given, which the annealing walk then explores
        from), then the best ranking so far after each temperature plateau
        that improved it."""
        start = initial if initial is not None else PickAPerm()._aggregate(rankings, weights)
        yield from self.anytime_refine(start, weights)

    def anytime_refine(
        self, start: Ranking, weights: PairwiseWeights
    ) -> Iterator[ScoredCandidate]:
        """Incremental form of :meth:`refine_from`.

        Yields ``start`` first, then the best ranking visited so far after
        each temperature plateau *that improved it* (the geometric schedule
        walks ~1.5k plateaus; yielding each one would hand the consumer
        ~1.5k identical candidates), each with its tracked exact score.
        The final item equals the batch :meth:`refine_from` result.
        """
        rng = self._rng()
        cost_before = weights.cost_before().astype(np.int64)
        cost_tied = weights.cost_tied().astype(np.int64)
        index_of = weights.index_of
        elements = weights.elements
        n = len(elements)
        current_score = generalized_kemeny_score_from_weights(start, weights)
        yield start, current_score
        if n <= 1:
            return

        buckets: list[list[int]] = [
            [index_of[element] for element in bucket] for bucket in start.buckets
        ]
        best_buckets = [list(bucket) for bucket in buckets]
        best_score = current_score

        temperature = self._initial_temperature
        plateau = self._moves_per_temperature or n
        self._moves_proposed = 0
        self._moves_accepted = 0
        yielded_score = best_score

        while temperature > self._min_temperature and self._moves_proposed < self._max_moves:
            for _ in range(plateau):
                if self._moves_proposed >= self._max_moves:
                    break
                self._moves_proposed += 1
                delta = self._propose_and_maybe_apply(
                    buckets, cost_before, cost_tied, temperature, rng
                )
                if delta is None:
                    continue
                self._moves_accepted += 1
                current_score += delta
                if current_score < best_score:
                    best_score = current_score
                    best_buckets = [list(bucket) for bucket in buckets]
            temperature *= self._cooling
            if best_score < yielded_score:
                yielded_score = best_score
                yield Ranking(
                    [[elements[i] for i in bucket] for bucket in best_buckets if bucket]
                ), best_score

    # ------------------------------------------------------------------ #
    def _propose_and_maybe_apply(
        self,
        buckets: list[list[int]],
        cost_before: np.ndarray,
        cost_tied: np.ndarray,
        temperature: float,
        rng: np.random.Generator,
    ) -> int | None:
        """Propose one random move; apply it if accepted and return its delta."""
        all_elements = [x for bucket in buckets for x in bucket]
        x = all_elements[int(rng.integers(0, len(all_elements)))]
        current_bucket_index = next(
            index for index, bucket in enumerate(buckets) if x in bucket
        )
        was_alone = len(buckets[current_bucket_index]) == 1

        others: list[list[int]] = []
        current_position: int | None = None
        for index, bucket in enumerate(buckets):
            remaining = [y for y in bucket if y != x] if index == current_bucket_index else bucket
            if remaining:
                others.append(remaining)
            if index == current_bucket_index:
                current_position = len(others) - (0 if was_alone else 1)
        num_buckets = len(others)
        if num_buckets == 0:
            return None

        to_x = np.empty(num_buckets, dtype=np.int64)
        from_x = np.empty(num_buckets, dtype=np.int64)
        tie_x = np.empty(num_buckets, dtype=np.int64)
        for k, bucket in enumerate(others):
            indices = np.asarray(bucket, dtype=np.intp)
            to_x[k] = cost_before[indices, x].sum()
            from_x[k] = cost_before[x, indices].sum()
            tie_x[k] = cost_tied[x, indices].sum()
        prefix_to_x = np.concatenate(([0], np.cumsum(to_x)))
        suffix_from_x = np.concatenate((np.cumsum(from_x[::-1])[::-1], [0]))
        tie_costs = prefix_to_x[:num_buckets] + tie_x + suffix_from_x[1:]
        new_costs = prefix_to_x + suffix_from_x

        current_cost = int(
            new_costs[current_position] if was_alone else tie_costs[current_position]
        )

        # Draw a random target placement: tie with an existing bucket or a new
        # bucket at a random insertion position.
        if rng.random() < 0.5:
            target = int(rng.integers(0, num_buckets))
            proposed_cost = int(tie_costs[target])
            apply = lambda: others[target].append(x)  # noqa: E731 - tiny closure
        else:
            position = int(rng.integers(0, num_buckets + 1))
            proposed_cost = int(new_costs[position])
            apply = lambda: others.insert(position, [x])  # noqa: E731

        delta = proposed_cost - current_cost
        if delta > 0 and rng.random() >= np.exp(-delta / temperature):
            return None
        apply()
        buckets[:] = others
        return delta

    def _last_details(self) -> dict[str, object]:
        return {
            "moves_proposed": self._moves_proposed,
            "moves_accepted": self._moves_accepted,
        }
