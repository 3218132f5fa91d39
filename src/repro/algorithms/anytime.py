"""Anytime / incremental execution protocol for local-search algorithms.

The paper's closing guidance (Section 7.4) only matters under real time
constraints: a serving system given a deadline must return the *best
consensus found so far* instead of nothing.  This module defines the
anytime contract the local-search family implements and the helpers the
service layer (:mod:`repro.service`) builds on:

* an anytime algorithm subclasses :class:`AnytimeAggregator` and
  describes its search once, as ``_anytime_candidates(rankings, weights,
  initial=None)``: a generator of ``(ranking, score)`` pairs, where
  ``score`` is the candidate's exact generalized Kemeny score (the first
  pair must come cheaply, so one step always yields a valid consensus —
  even under an already-expired deadline);
* :meth:`AnytimeAggregator.begin_anytime` wraps that stream in an
  :class:`AnytimeController`, which advances it one increment per
  ``step()`` (one local-search sweep, one Chanas round, one annealing
  plateau, ...) and keeps the best candidate so far
  (:meth:`AnytimeController.best_so_far`), whose score is **monotone
  non-increasing**;
* the batch ``aggregate()`` drains the same stream and keeps the first
  candidate of lowest score, so a search run to completion returns
  exactly the batch result;
* :func:`run_anytime` drives a controller against a wall-clock deadline
  and packages the best candidate as a regular
  :class:`~repro.algorithms.base.AggregationResult`.
"""

from __future__ import annotations

import time
from abc import abstractmethod
from collections.abc import Iterator, Sequence
from typing import Any

from ..core.pairwise import PairwiseWeights
from ..core.ranking import Ranking
from ..datasets.dataset import Dataset
from ..telemetry import runtime as _telemetry
from .base import AggregationResult, RankAggregator

__all__ = [
    "AnytimeAggregator",
    "AnytimeController",
    "supports_anytime",
    "run_anytime",
]

# A candidate consensus and its exact generalized Kemeny score.
ScoredCandidate = tuple[Ranking, int]


class AnytimeAggregator(RankAggregator):
    """A rank aggregator whose search is a stream of scored candidates.

    Subclasses implement :meth:`_anytime_candidates`; the anytime entry
    point :meth:`begin_anytime` and the batch :meth:`_aggregate` both
    consume that one stream.  Construction takes the ``seed`` keyword of
    :class:`~repro.algorithms.base.RankAggregator`.
    """

    def begin_anytime(
        self,
        dataset: Dataset | Sequence[Ranking],
        weights: PairwiseWeights | None = None,
        *,
        initial: Ranking | None = None,
    ) -> "AnytimeController":
        """Start an incremental search over ``dataset``.

        Parameters
        ----------
        dataset:
            The complete dataset (or sequence of rankings) to aggregate.
        weights:
            Pre-computed pairwise weights of ``dataset``; callers racing
            several searches over one dataset (the portfolio scheduler)
            share a single O(m·n²) construction.  Otherwise the dataset's
            memoized preparation plan is used, or a fresh build for a plain
            sequence of rankings.
        initial:
            Optional consensus to warm-start from: its refinement
            trajectory is searched *first*, so a warm-started run over a
            slightly mutated dataset (:class:`~repro.core.live.LiveDataset`
            repair) reconverges in a fraction of the cold search, while the
            cold candidate stream still follows (for the chained and
            annealing searches, ``initial`` replaces the cold start).
        """
        rankings = self._validate(dataset)
        if weights is None:
            if isinstance(dataset, Dataset):
                weights = dataset.prepared().weights
            else:
                weights = PairwiseWeights(rankings)
        return AnytimeController(
            self.name,
            self._anytime_candidates(rankings, weights, initial=initial),
            dataset_name=dataset.name if isinstance(dataset, Dataset) else "",
        )

    @abstractmethod
    def _anytime_candidates(
        self,
        rankings: Sequence[Ranking],
        weights: PairwiseWeights,
        initial: Ranking | None = None,
    ) -> Iterator[ScoredCandidate]:
        """The search, as successive ``(candidate, exact score)`` pairs."""

    def _aggregate(
        self, rankings: Sequence[Ranking], weights: PairwiseWeights
    ) -> Ranking:
        """Drain the candidate stream; the earliest lowest score wins."""
        best, best_score = None, None
        for candidate, score in self._anytime_candidates(rankings, weights):
            if best_score is None or score < best_score:
                best, best_score = candidate, score
        assert best is not None, "anytime search yielded no candidate"
        return best


def supports_anytime(algorithm: object) -> bool:
    """Whether ``algorithm`` implements the anytime protocol
    (is an :class:`AnytimeAggregator`)."""
    return isinstance(algorithm, AnytimeAggregator)


class AnytimeController:
    """Drives one incremental search and tracks the best candidate so far.

    A controller wraps the scored candidate stream of an algorithm's
    ``_anytime_candidates`` hook.  Each :meth:`step` call advances the
    stream by one increment and keeps the yielded candidate when its score
    improves on the best seen so far — so :meth:`best_so_far` /
    :attr:`best_score` are monotone (the score never increases across
    steps).

    Parameters
    ----------
    algorithm_name:
        Name reported on the packaged :class:`AggregationResult`.
    candidates:
        Iterator yielding successive ``(candidate, score)`` pairs, the
        score being the candidate's exact generalized Kemeny score.  The
        first pair must be produced cheaply (a starting candidate), so one
        ``step()`` always suffices to hold a valid consensus.
    dataset_name:
        Optional dataset label recorded on the telemetry convergence
        stream (empty for anonymous ranking sequences).
    """

    def __init__(
        self,
        algorithm_name: str,
        candidates: Iterator[ScoredCandidate],
        *,
        dataset_name: str = "",
    ):
        self.algorithm_name = algorithm_name
        self.dataset_name = dataset_name
        self._candidates = candidates
        self._best: Ranking | None = None
        self._best_score: int | None = None
        self._steps = 0
        self._finished = False
        self._stream = None
        self._started: float | None = None

    # ------------------------------------------------------------------ #
    @property
    def steps(self) -> int:
        """Number of :meth:`step` calls that advanced the search."""
        return self._steps

    @property
    def finished(self) -> bool:
        """Whether the underlying search ran to completion."""
        return self._finished

    @property
    def best_score(self) -> int | None:
        """Generalized Kemeny score of the best candidate so far.

        ``None`` until the first step; monotone non-increasing afterwards.
        """
        return self._best_score

    def best_so_far(self) -> Ranking | None:
        """Best consensus found so far (``None`` before the first step)."""
        return self._best

    # ------------------------------------------------------------------ #
    def step(self) -> bool:
        """Advance the search by one increment.

        Returns ``True`` while the search can still make progress and
        ``False`` once it is exhausted (the controller is then *finished*
        and further calls are no-ops).
        """
        if self._finished:
            return False
        if self._started is None:
            self._started = time.perf_counter()
        try:
            candidate, score = next(self._candidates)
        except StopIteration:
            self._finished = True
            return False
        self._steps += 1
        if self._best_score is None or score < self._best_score:
            self._best = candidate
            self._best_score = score
        if _telemetry.is_enabled():
            if self._stream is None:
                self._stream = _telemetry.convergence_stream(
                    self.algorithm_name, dataset=self.dataset_name
                )
            self._stream.record(
                self._steps,
                float(self._best_score),
                time.perf_counter() - self._started,
            )
        return True

    def run_to_completion(self) -> Ranking:
        """Drain the search entirely and return the best consensus."""
        while self.step():
            pass
        assert self._best is not None, "anytime search yielded no candidate"
        return self._best

    def result(self, *, elapsed_seconds: float = 0.0, **extra: Any) -> AggregationResult:
        """Package the best candidate as an :class:`AggregationResult`.

        Parameters
        ----------
        elapsed_seconds:
            Wall-clock time to record on the result.
        extra:
            Additional entries merged into the result's ``details``.
        """
        if self._best is None or self._best_score is None:
            raise RuntimeError(
                "anytime search has no candidate yet; call step() at least once"
            )
        details: dict[str, Any] = {
            "anytime": True,
            "steps": self._steps,
            "finished": self._finished,
        }
        details.update(extra)
        return AggregationResult(
            consensus=self._best,
            score=self._best_score,
            algorithm=self.algorithm_name,
            elapsed_seconds=elapsed_seconds,
            details=details,
        )

    def __repr__(self) -> str:
        return (
            f"AnytimeController(algorithm={self.algorithm_name!r}, "
            f"steps={self._steps}, best_score={self._best_score}, "
            f"finished={self._finished})"
        )


def run_anytime(
    algorithm: RankAggregator,
    dataset: Dataset | Sequence[Ranking],
    budget_seconds: float | None,
    *,
    initial: Ranking | None = None,
) -> AggregationResult:
    """Run ``algorithm`` on ``dataset`` under a wall-clock deadline.

    The algorithm must implement the anytime protocol
    (:func:`supports_anytime`).  The search is advanced step by step until
    it finishes or the budget is exhausted; the first step is always
    taken, so the best consensus found so far is always returned — a
    deadline never produces "no result".

    Parameters
    ----------
    algorithm:
        An :class:`AnytimeAggregator` (BioConsert, Chanas, ChanasBoth,
        chained variants, simulated annealing).
    dataset:
        The complete dataset (or sequence of rankings) to aggregate.
    budget_seconds:
        Wall-clock budget; ``None`` runs the search to completion.
    initial:
        Optional consensus to warm-start the search from (e.g. the
        pre-mutation consensus when repairing after a
        :class:`~repro.core.live.LiveDataset` write); its refinement
        trajectory runs first, and the result records
        ``details["warm_start"] = True``.
    """
    if not supports_anytime(algorithm):
        raise TypeError(
            f"{type(algorithm).__name__} does not support anytime execution; "
            "expected an AnytimeAggregator"
        )
    start = time.perf_counter()
    controller = algorithm.begin_anytime(dataset, initial=initial)
    deadline = None if budget_seconds is None else start + budget_seconds
    while controller.step():
        if deadline is not None and time.perf_counter() >= deadline:
            break
    elapsed = time.perf_counter() - start
    return controller.result(
        elapsed_seconds=elapsed,
        budget_seconds=budget_seconds,
        deadline_hit=not controller.finished,
        warm_start=initial is not None,
    )
