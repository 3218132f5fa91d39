"""Live serving sessions: mutate, repair, re-serve.

The write-path counterpart of :class:`~repro.service.frontend.ServiceFrontend`.
A :class:`LiveAggregationSession` owns a :class:`~repro.core.live.LiveDataset`
and keeps a consensus continuously fresh across streaming writes:

* every write (:meth:`LiveAggregationSession.mutate`, one add / remove /
  update record) delta-updates the dataset's pairwise weights (O(n²) per
  touched ranking, never a rebuild) and **invalidates** the responses the
  attached frontend cached under the pre-mutation fingerprint;
* :meth:`LiveAggregationSession.repair` re-solves **warm-started** from the
  pre-mutation consensus (``run_anytime(..., initial=...)``): the anytime
  local-search family refines the previous answer against the new weights
  first, which reconverges in a fraction of a cold solve when the write
  touched only a few rankings;
* the repaired consensus is **re-published** under the post-mutation
  fingerprint, so the next frontend request for the new content is a cache
  hit instead of a recomputation.

Each repair returns a :class:`RepairReport` quoting the convergence delta:
what the previous consensus scored against the mutated weights, what the
repaired one scores, and how long the warm search took.

Sessions can be **journaled** (``journal_dir=``): every acknowledged
mutation and published repair is appended to a
:class:`~repro.core.journal.LiveJournal` *before* the call returns, and
:meth:`LiveAggregationSession.recover` rebuilds the session after a crash —
replaying the journal into a byte-identical dataset and warm-starting the
next repair from the last published consensus.  The write-ahead ordering is
strict: a mutation whose journal append fails is **rolled back** (its
inverse record applied, its generation undone) before the error
propagates, so the set of acknowledged mutations is always a subset of
the journaled ones.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..algorithms.anytime import run_anytime, supports_anytime
from ..algorithms.registry import make_algorithm
from ..core.journal import (
    JOURNAL_RECOVERED,
    JournalError,
    LiveJournal,
    init_record,
    mutation_record,
    repair_record,
    replay_journal,
)
from ..core.kemeny import generalized_kemeny_score_from_weights
from ..core.live import LiveDataset
from ..core.ranking import Ranking
from ..telemetry import runtime as _telemetry
from .frontend import ServiceFrontend, ServiceRequest

__all__ = ["RepairReport", "LiveAggregationSession"]


@dataclass(frozen=True)
class RepairReport:
    """Outcome of one consensus repair after a mutation.

    Attributes
    ----------
    generation:
        The live dataset generation the repair brought the consensus up to.
    fingerprint:
        Content fingerprint of the repaired generation.
    algorithm:
        Name of the algorithm that ran the repair.
    consensus:
        The repaired consensus ranking.
    score:
        Its generalized Kemeny score against the post-mutation weights.
    previous_score:
        What the *pre-mutation* consensus scores against the post-mutation
        weights (``None`` on the initial cold solve) — the starting point
        of the warm search.
    score_delta:
        ``previous_score - score``: how much the repair improved on simply
        keeping the stale consensus (``None`` on the initial cold solve;
        never negative — warm starts only keep improvements).
    warm_start:
        Whether the search was warm-started from a previous consensus.
    repair_seconds:
        Wall-clock time of the repair solve.
    steps:
        Anytime steps the repair search took.
    invalidated:
        Cached frontend responses purged by the mutations this repair
        covers (0 without an attached frontend).
    """

    generation: int
    fingerprint: str
    algorithm: str
    consensus: Ranking
    score: int
    previous_score: int | None
    score_delta: int | None
    warm_start: bool
    repair_seconds: float
    steps: int
    invalidated: int

    def describe(self) -> dict[str, Any]:
        """Flat dictionary form (CLI tables, benchmark payloads)."""
        return {
            "generation": self.generation,
            "fingerprint": self.fingerprint[:12],
            "algorithm": self.algorithm,
            "score": self.score,
            "previous_score": self.previous_score,
            "score_delta": self.score_delta,
            "warm_start": self.warm_start,
            "repair_seconds": self.repair_seconds,
            "steps": self.steps,
            "invalidated": self.invalidated,
        }


class LiveAggregationSession:
    """Keep a consensus fresh over a mutating dataset.

    Parameters
    ----------
    dataset:
        The live dataset to serve, or anything accepted by
        :class:`~repro.core.live.LiveDataset` (an iterable of rankings is
        wrapped into a fresh one).
    algorithm:
        Registry name of the anytime-capable algorithm running the solves
        (default ``"BioConsert"``); must support warm starts
        (:func:`~repro.algorithms.anytime.supports_anytime`).
    frontend:
        Optional :class:`~repro.service.frontend.ServiceFrontend` whose
        cache the session keeps coherent: mutations invalidate the stale
        fingerprint, repairs re-publish under the new one.
    budget_seconds:
        Wall-clock budget per solve (``None`` runs each search to
        completion).
    seed:
        Seed forwarded to the algorithm factory.
    journal_dir:
        Directory for the session's write-ahead journal.  A fresh journal
        records the initial dataset; a directory that already holds
        journal content is refused — resume from it with
        :meth:`recover` instead of silently forking history.
    journal:
        An already-open :class:`~repro.core.journal.LiveJournal` writer to
        adopt instead of opening one (mutually exclusive with
        ``journal_dir``; used by :meth:`recover`).
    journal_fsync:
        Fsync policy for a journal opened via ``journal_dir``.
    compact_every:
        Write a compaction snapshot whenever this many records accumulated
        since the last one (checked after each repair; ``None`` disables
        automatic compaction — :meth:`compact` stays available).
    """

    def __init__(
        self,
        dataset: LiveDataset,
        *,
        algorithm: str = "BioConsert",
        frontend: ServiceFrontend | None = None,
        budget_seconds: float | None = None,
        seed: int | None = None,
        journal_dir: str | Path | None = None,
        journal: LiveJournal | None = None,
        journal_fsync: str = "batch",
        compact_every: int | None = None,
    ):
        if not isinstance(dataset, LiveDataset):
            dataset = LiveDataset(dataset)
        self.dataset = dataset
        self.algorithm_name = algorithm
        self.frontend = frontend
        self.budget_seconds = budget_seconds
        self.seed = seed
        self._algorithm = make_algorithm(algorithm, seed=seed)
        if not supports_anytime(self._algorithm):
            raise TypeError(
                f"algorithm {algorithm!r} does not support anytime execution; "
                "live repair needs begin_anytime(dataset, initial=...)"
            )
        if journal is not None and journal_dir is not None:
            raise JournalError("pass journal_dir or an open journal, not both")
        if compact_every is not None and compact_every < 1:
            raise JournalError(f"compact_every must be >= 1, got {compact_every}")
        if journal is None and journal_dir is not None:
            journal = LiveJournal(journal_dir, fsync=journal_fsync)
            if journal.had_records:
                journal.close()
                raise JournalError(
                    f"journal directory {journal_dir} already holds a journal; "
                    "use LiveAggregationSession.recover() to resume it"
                )
            journal.append(
                init_record(dataset.name, dataset.rankings, dataset.metadata)
            )
        self.journal = journal
        self.compact_every = compact_every
        self._consensus: Ranking | None = None
        self._score: int | None = None
        self._served_generation: int | None = None
        self._pending_invalidated = 0

    # ------------------------------------------------------------------ #
    # Crash recovery
    # ------------------------------------------------------------------ #
    @classmethod
    def recover(
        cls,
        journal_dir: str | Path,
        *,
        algorithm: str | None = None,
        frontend: ServiceFrontend | None = None,
        budget_seconds: float | None = None,
        seed: int | None = None,
        journal_fsync: str = "batch",
        compact_every: int | None = None,
    ) -> "LiveAggregationSession":
        """Resume a journaled session after a crash.

        Replays the journal (truncating any torn tail the dying process
        left behind) into a dataset byte-identical to the acknowledged
        mutation history, restores the last published consensus so the
        next :meth:`repair` warm-starts from it instead of solving cold,
        and reopens the journal for further appends.

        Parameters
        ----------
        journal_dir:
            The crashed session's journal directory.
        algorithm:
            Algorithm override; defaults to the journaled one (falling
            back to ``"BioConsert"`` when no repair was ever journaled).
        frontend, budget_seconds, seed, journal_fsync, compact_every:
            As in the constructor (serving configuration is not journaled
            — it belongs to the process, not the state).
        """
        result = replay_journal(journal_dir)
        journal = LiveJournal(journal_dir, fsync=journal_fsync)
        session = cls(
            result.dataset,
            algorithm=algorithm or result.algorithm or "BioConsert",
            frontend=frontend,
            budget_seconds=budget_seconds,
            seed=seed,
            journal=journal,
            compact_every=compact_every,
        )
        if result.consensus is not None:
            session._consensus = result.consensus
            session._score = result.score
            session._served_generation = result.repair_generation
        if _telemetry.is_enabled():
            _telemetry.count(JOURNAL_RECOVERED, dataset=result.dataset.name)
        return session

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def consensus(self) -> Ranking | None:
        """Latest consensus (``None`` before the first solve)."""
        return self._consensus

    @property
    def score(self) -> int | None:
        """Latest consensus score (``None`` before the first solve)."""
        return self._score

    @property
    def is_stale(self) -> bool:
        """Whether mutations happened since the consensus was last repaired."""
        return self._served_generation != self.dataset.generation

    # ------------------------------------------------------------------ #
    # Writes (apply to the live dataset, journal, then invalidate)
    # ------------------------------------------------------------------ #
    def mutate(self, record: Mapping[str, Any]) -> dict[str, Any]:
        """Apply one write record; stale cached responses are invalidated.

        The record is the ``POST /live/{name}/mutate`` body, checked and
        applied by :meth:`~repro.core.live.LiveDataset.apply` (a refused
        record raises :class:`ValueError` and changes nothing).  With a
        journal attached, the resolved record is durably appended before
        this returns; a failed append reverts the write (content and
        generation) and re-raises.

        Parameters
        ----------
        record:
            ``{"op": "add" | "remove" | "update", "index": int | None,
            "ranking": "<text line>"}``.

        Returns
        -------
        dict
            The resolved record: the position written and, for add and
            update, the canonical text line stored.
        """
        old = self.dataset.content_fingerprint()
        resolved, inverse = self.dataset.apply(record)
        if self.journal is not None:
            try:
                self.journal.append(
                    mutation_record(
                        resolved["op"],
                        self.dataset.generation,
                        index=resolved["index"],
                        ranking=resolved.get("ranking"),
                    )
                )
            except Exception:
                self.dataset.revert(inverse)
                raise
        self._invalidate(old)
        return resolved

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def serve(self) -> RepairReport:
        """Current consensus, repairing first when the dataset mutated.

        The cheap read path: returns immediately when the consensus is
        already at the live generation, otherwise runs one
        :meth:`repair`.
        """
        report = self._current_report()
        if report is not None:
            return report
        return self.repair()

    def repair(self, budget_seconds: float | None = None) -> RepairReport:
        """Bring the consensus up to the current generation.

        Warm-starts the anytime search from the pre-mutation consensus
        when one exists (the initial solve is cold), re-publishes the
        result under the new fingerprint on the attached frontend and
        reports the convergence delta.

        Parameters
        ----------
        budget_seconds:
            Budget override for this repair; defaults to the session
            budget.
        """
        snapshot = self.dataset.snapshot()
        fingerprint = snapshot.content_fingerprint()
        budget = self.budget_seconds if budget_seconds is None else budget_seconds
        previous = self._consensus
        previous_score: int | None = None
        if previous is not None:
            previous_score = int(
                generalized_kemeny_score_from_weights(
                    previous, snapshot.prepared().weights
                )
            )
        with _telemetry.span(
            "live.repair",
            dataset=self.dataset.name,
            generation=self.dataset.generation,
            warm=previous is not None,
        ):
            start = time.perf_counter()
            result = run_anytime(
                self._algorithm, snapshot, budget, initial=previous
            )
            repair_seconds = time.perf_counter() - start
        self._consensus = result.consensus
        self._score = int(result.score)
        self._served_generation = self.dataset.generation
        invalidated = self._pending_invalidated
        self._pending_invalidated = 0
        self._publish(snapshot, result.consensus, int(result.score))
        if self.journal is not None:
            # Journaled *after* the in-memory publish: losing the repair
            # record is safe (recovery warm-starts from an older consensus
            # and repairs again), losing a mutation record is not.
            self.journal.append(
                repair_record(
                    self.dataset.generation,
                    result.consensus,
                    int(result.score),
                    self.algorithm_name,
                )
            )
            if (
                self.compact_every is not None
                and self.journal.appended_since_snapshot >= self.compact_every
            ):
                self.compact()
        if _telemetry.is_enabled():
            _telemetry.count("live.repairs", warm=previous is not None)
            _telemetry.observe("live.repair_seconds", repair_seconds)
        return RepairReport(
            generation=self.dataset.generation,
            fingerprint=fingerprint,
            algorithm=self.algorithm_name,
            consensus=result.consensus,
            score=int(result.score),
            previous_score=previous_score,
            score_delta=(
                None if previous_score is None else previous_score - int(result.score)
            ),
            warm_start=previous is not None,
            repair_seconds=repair_seconds,
            steps=int(result.details.get("steps", 0)),
            invalidated=invalidated,
        )

    # ------------------------------------------------------------------ #
    # Journal maintenance
    # ------------------------------------------------------------------ #
    def compact(self) -> None:
        """Write a compaction snapshot and drop the journal history it covers.

        The snapshot embeds the dataset's delta-maintained weight matrices
        and the current consensus, so recovery adopts them instead of
        replaying the compacted mutations.  A no-op without a journal.
        """
        if self.journal is None:
            return
        self.journal.snapshot(
            self.dataset,
            consensus=self._consensus,
            score=self._score,
            algorithm=self.algorithm_name if self._consensus is not None else None,
            repair_generation=self._served_generation,
        )

    def close(self) -> None:
        """Flush and close the attached journal (idempotent, no-op without one)."""
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "LiveAggregationSession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _current_report(self) -> RepairReport | None:
        """A zero-cost report when the consensus is already fresh."""
        if (
            self._consensus is None
            or self._score is None
            or self._served_generation != self.dataset.generation
        ):
            return None
        return RepairReport(
            generation=self.dataset.generation,
            fingerprint=self.dataset.content_fingerprint(),
            algorithm=self.algorithm_name,
            consensus=self._consensus,
            score=self._score,
            previous_score=self._score,
            score_delta=0,
            warm_start=False,
            repair_seconds=0.0,
            steps=0,
            invalidated=0,
        )

    def _invalidate(self, stale_fingerprint: str) -> None:
        """Purge the attached frontend's responses for a stale fingerprint."""
        if self.frontend is None:
            return
        self._pending_invalidated += self.frontend.invalidate_dataset(
            stale_fingerprint
        )

    def _publish(self, snapshot: Any, consensus: Ranking, score: int) -> None:
        """Store the repaired consensus in the frontend cache (re-serve path).

        The next request for the post-mutation content hits the cache
        instead of recomputing; stored under the exact service key the
        frontend would compute for a pinned-algorithm request with the
        session's budget.
        """
        if self.frontend is None:
            return
        request = ServiceRequest(
            dataset=snapshot,
            algorithm=self.algorithm_name,
            budget_seconds=self.budget_seconds,
        )
        _, key, fingerprint = self.frontend._prepare(request)
        self.frontend._cache_store(
            key, consensus, score, self.algorithm_name, fingerprint
        )

    def __repr__(self) -> str:
        return (
            f"LiveAggregationSession(dataset={self.dataset!r}, "
            f"algorithm={self.algorithm_name!r}, stale={self.is_stale})"
        )
