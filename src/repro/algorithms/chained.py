"""Chaining strategies: a fast algorithm followed by an anytime refiner.

Section 8 of the paper proposes, as future work, "strategies chaining
several algorithms": produce a first consensus with a cheap algorithm
(positional methods answer in microseconds) and refine it with an anytime
approach (local search, simulated annealing).  This module implements that
strategy so it can be evaluated and ablated against the single-algorithm
baselines of the paper.

A :class:`ChainedAggregator` is built from

* an *initial* aggregator — any :class:`~repro.algorithms.base.RankAggregator`;
* a *refiner* — an object exposing ``anytime_refine(start, weights)``, a
  stream of scored candidates starting at ``start``; both
  :class:`~repro.algorithms.bioconsert.BioConsert` (greedy local search) and
  :class:`~repro.algorithms.annealing.SimulatedAnnealing` do.

Because both refiners only ever keep improvements, the chained result is
never worse than the initial algorithm's consensus.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import Protocol

from ..core.kemeny import generalized_kemeny_score_from_weights
from ..core.pairwise import PairwiseWeights
from ..core.ranking import Ranking
from .anytime import AnytimeAggregator, ScoredCandidate
from .base import RankAggregator

__all__ = ["ChainedAggregator", "ConsensusRefiner"]


class ConsensusRefiner(Protocol):
    """Anything that can improve an existing consensus step by step."""

    def anytime_refine(
        self, start: Ranking, weights: PairwiseWeights
    ) -> Iterator[ScoredCandidate]:
        """Yield ``start``, then candidates never worse than it, each with
        its exact generalized Kemeny score."""


class ChainedAggregator(AnytimeAggregator):
    """Run a fast algorithm, then refine its consensus with an anytime method."""

    name = "Chained"
    family = "G"
    approximation = None
    produces_ties = True
    accounts_for_tie_cost = True
    randomized = True

    def __init__(
        self,
        initial: RankAggregator,
        refiner: ConsensusRefiner,
        *,
        seed: int | None = None,
    ):
        """
        Parameters
        ----------
        initial:
            The algorithm producing the starting consensus (e.g.
            ``BordaCount()`` or ``MEDRank(0.5)``).
        refiner:
            The anytime refiner (e.g. ``SimulatedAnnealing(seed=0)`` or
            ``BioConsert()``); must expose ``anytime_refine``.
        """
        super().__init__(seed=seed)
        if not hasattr(refiner, "anytime_refine"):
            raise TypeError(
                f"{type(refiner).__name__} cannot be used as a refiner: "
                "it does not expose anytime_refine(start, weights)"
            )
        self._initial = initial
        self._refiner = refiner
        refiner_name = getattr(refiner, "name", type(refiner).__name__)
        self.name = f"Chained({initial.name}→{refiner_name})"
        self._initial_score: int | None = None
        self._refined_score: int | None = None

    def _anytime_candidates(
        self,
        rankings: Sequence[Ranking],
        weights: PairwiseWeights,
        initial: Ranking | None = None,
    ) -> Iterator[ScoredCandidate]:
        """Candidate stream: the initial algorithm's consensus (a valid
        result on its own), then the refiner's stream from it, one
        refinement increment per step.  A warm-start ``initial`` replaces
        the initial algorithm's output as the refiner's starting point."""
        if initial is not None:
            start = initial
        else:
            start = self._initial._aggregate(rankings, weights)
        score = self._initial_score = generalized_kemeny_score_from_weights(start, weights)
        yield start, score
        for candidate, score in self._refiner.anytime_refine(start, weights):
            yield candidate, score
        self._refined_score = score

    def _last_details(self) -> dict[str, object]:
        improvement = None
        if self._initial_score is not None and self._refined_score is not None:
            improvement = self._initial_score - self._refined_score
        return {
            "initial_score": self._initial_score,
            "refined_score": self._refined_score,
            "improvement": improvement,
        }
