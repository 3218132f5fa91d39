"""PortfolioScheduler: race guidance-chosen algorithms under one time budget.

The guidance engine (Section 7.4, :mod:`repro.evaluation.guidance`) tells
*which* algorithms suit a dataset; the portfolio scheduler turns that
advice into a deadline-honouring execution plan:

1. candidate algorithms come from :func:`repro.evaluation.recommend` for
   the dataset's profile and the caller's priority (an explicit list can
   be given instead), always backed by a positional *floor* algorithm so a
   first consensus exists within microseconds;
2. cheap **one-shot** candidates (positional methods, KwikSort) run first,
   each under the remaining budget; candidates with a known-exponential
   cost model (the exact solvers) are *skipped* when the remaining budget
   cannot plausibly cover them — this is what lets
   ``repro-rankagg portfolio FILE --budget 0.5`` answer on datasets where
   the exact solver alone would blow the deadline;
3. **anytime** candidates (the local-search family, see
   :mod:`repro.algorithms.anytime`) are then raced round-robin, one
   increment each, until the deadline; unfinished searches are cancelled
   and their best-so-far kept.

The whole race runs off **one** dataset preparation plan
(:mod:`repro.core.prepared`): the O(m·n²) pairwise construction is built
a single time and threaded into every one-shot run and every anytime
racer, so member N never re-bills the setup of member 1 to the budget.

The scheduler is cooperative and single-threaded, so results are
deterministic for a fixed seed: with a generous budget every member runs
to completion and the portfolio returns exactly the best single
algorithm's consensus.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

from ..algorithms.anytime import AnytimeController, supports_anytime
from ..algorithms.base import RankAggregator
from ..algorithms.registry import make_algorithm
from ..core.exceptions import ReproError
from ..core.prepared import PreparedDataset
from ..core.ranking import Ranking
from ..datasets.dataset import Dataset
from ..evaluation.guidance import Priority, profile_dataset, recommend
from ..telemetry import runtime as _telemetry
from ..testing import faults as _faults
from ..testing.faults import TransientRunError, WorkerCrashError

__all__ = ["MemberReport", "PortfolioResult", "PortfolioScheduler"]

# Algorithms whose cost grows exponentially with the number of elements;
# they are skipped (not attempted) when the remaining budget cannot
# plausibly cover them, because a started run cannot be interrupted.
_EXPONENTIAL_SOLVERS = frozenset({"ExactAlgorithm", "ExactSubsetDP", "BnB", "BnB-beam"})

# Floor algorithm: answers in microseconds on any dataset, guaranteeing the
# portfolio always holds a valid consensus before the anytime racing phase.
_FLOOR_ALGORITHM = "BordaCount"


@dataclass(frozen=True)
class MemberReport:
    """Execution record of one portfolio member.

    Attributes
    ----------
    algorithm:
        Registry name of the member.
    mode:
        ``"one-shot"`` (ran once under the remaining budget) or
        ``"anytime"`` (raced incrementally against the deadline).
    status:
        ``"finished"`` (ran to completion), ``"cancelled"`` (deadline hit,
        best-so-far kept), ``"skipped"`` (never started: estimated cost
        exceeded the remaining budget), ``"over-budget"`` (a one-shot run
        overran the deadline; its result still competes) or ``"failed"``
        (library error, e.g. algorithm not applicable).
    score:
        Best generalized Kemeny score the member achieved (``None`` when
        skipped or failed).
    steps:
        Anytime increments taken (0 for one-shot members).
    elapsed_seconds:
        Wall-clock time spent inside this member.
    reason:
        Human-readable detail for skipped / failed members.
    """

    algorithm: str
    mode: str
    status: str
    score: int | None
    steps: int = 0
    elapsed_seconds: float = 0.0
    reason: str | None = None

    def describe(self) -> dict[str, Any]:
        """Flat dictionary form (CLI tables, service reports)."""
        return {
            "algorithm": self.algorithm,
            "mode": self.mode,
            "status": self.status,
            "score": self.score,
            "steps": self.steps,
            "elapsed_seconds": self.elapsed_seconds,
            "reason": self.reason,
        }


@dataclass
class PortfolioResult:
    """Outcome of one portfolio run: the winning consensus plus accounting.

    Attributes
    ----------
    consensus:
        The best consensus found across every member.
    score:
        Its generalized Kemeny score.
    algorithm:
        Name of the member that produced it.
    budget_seconds:
        The shared budget the portfolio ran under.
    elapsed_seconds:
        Wall-clock time of the whole race.
    members:
        One :class:`MemberReport` per candidate.
    """

    consensus: Ranking
    score: int
    algorithm: str
    budget_seconds: float | None
    elapsed_seconds: float
    members: list[MemberReport] = field(default_factory=list)

    @property
    def within_budget(self) -> bool:
        """Whether the whole portfolio honoured its budget (10% tolerance)."""
        if self.budget_seconds is None:
            return True
        return self.elapsed_seconds <= 1.1 * self.budget_seconds

    def describe(self) -> dict[str, Any]:
        """Flat dictionary form (CLI output, service cache records)."""
        return {
            "algorithm": self.algorithm,
            "score": self.score,
            "budget_seconds": self.budget_seconds,
            "elapsed_seconds": self.elapsed_seconds,
            "within_budget": self.within_budget,
            "members": [member.describe() for member in self.members],
        }

    def __repr__(self) -> str:
        return (
            f"PortfolioResult(algorithm={self.algorithm!r}, score={self.score}, "
            f"elapsed={self.elapsed_seconds:.4f}s, members={len(self.members)})"
        )


class PortfolioScheduler:
    """Race a portfolio of candidate algorithms under a shared time budget.

    Parameters
    ----------
    budget_seconds:
        Shared wall-clock budget for the whole portfolio; ``None`` runs
        every member to completion.
    priority:
        Guidance priority steering candidate selection
        (``quality`` / ``balanced`` / ``speed`` / ``optimality``).
    algorithms:
        Explicit candidate names (registry names); bypasses the guidance
        engine when given.
    seed:
        Seed forwarded to randomized candidates.
    include_floor:
        Always append the positional floor algorithm (BordaCount) so a
        consensus exists within microseconds.
    member_attempts:
        Attempts per one-shot member before it is reported ``failed``:
        transient infrastructure failures
        (:class:`~repro.testing.faults.TransientRunError`, simulated
        worker crashes) are retried against the remaining budget.  When
        retries burn the budget the race falls back to the unbudgeted
        floor run, so a consensus is still produced.
    """

    def __init__(
        self,
        *,
        budget_seconds: float | None = 1.0,
        priority: Priority | str = Priority.BALANCED,
        algorithms: Sequence[str] | None = None,
        seed: int | None = None,
        include_floor: bool = True,
        member_attempts: int = 2,
    ):
        if budget_seconds is not None and budget_seconds < 0:
            raise ValueError(f"budget_seconds must be >= 0, got {budget_seconds}")
        if member_attempts < 1:
            raise ValueError(f"member_attempts must be >= 1, got {member_attempts}")
        self.budget_seconds = budget_seconds
        self.priority = Priority(priority)
        self.algorithms = tuple(algorithms) if algorithms is not None else None
        self.seed = seed
        self.include_floor = include_floor
        self.member_attempts = member_attempts

    # ------------------------------------------------------------------ #
    # Candidate selection
    # ------------------------------------------------------------------ #
    def candidates(self, dataset: Dataset) -> list[str]:
        """Candidate algorithm names for ``dataset``, in racing order.

        Parameters
        ----------
        dataset:
            The (complete) dataset about to be aggregated; profiled with
            :func:`repro.evaluation.profile_dataset` when the candidate
            list comes from the guidance engine.
        """
        if self.algorithms is not None:
            names = list(dict.fromkeys(self.algorithms))
        else:
            profile = profile_dataset(dataset)
            names = list(
                dict.fromkeys(
                    entry.algorithm for entry in recommend(profile, self.priority)
                )
            )
        if self.include_floor and _FLOOR_ALGORITHM not in names:
            names.append(_FLOOR_ALGORITHM)
        return names

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, dataset: Dataset) -> PortfolioResult:
        """Race the candidate portfolio on ``dataset`` and return the winner.

        The returned consensus is the best (lowest generalized Kemeny
        score) across every member, whatever its completion status — a
        deadline always yields a valid consensus as long as at least one
        member produced a candidate, which the floor algorithm guarantees.

        Parameters
        ----------
        dataset:
            The complete dataset to aggregate.
        """
        with _telemetry.span("portfolio.run", dataset=dataset.name) as portfolio_span:
            result = self._run(dataset)
            if _telemetry.is_enabled():
                portfolio_span.set(
                    winner=result.algorithm,
                    score=result.score,
                    members=len(result.members),
                )
        return result

    def _run(self, dataset: Dataset) -> PortfolioResult:
        start = time.perf_counter()
        deadline = None if self.budget_seconds is None else start + self.budget_seconds
        names = self.candidates(dataset)

        # One preparation plan shared by every member — one-shot runs and
        # anytime racers alike; rebuilding the O(m·n²) matrices inside each
        # candidate would repeatedly bill the same setup to the budget.
        try:
            prepared: PreparedDataset | None = dataset.prepared()
        except ReproError:
            prepared = None  # let each member surface the failure itself

        one_shot: list[tuple[str, RankAggregator]] = []
        racers: list[tuple[str, RankAggregator]] = []
        for name in names:
            algorithm = make_algorithm(name, seed=self.seed)
            if supports_anytime(algorithm):
                racers.append((name, algorithm))
            else:
                one_shot.append((name, algorithm))

        members: list[MemberReport] = []
        best: tuple[int, Ranking, str] | None = None  # (score, consensus, name)

        def consider(score: int, consensus: Ranking, name: str) -> None:
            nonlocal best
            if best is None or score < best[0]:
                best = (score, consensus, name)

        # Phase 1 — one-shot members, each under the remaining budget.
        for name, algorithm in one_shot:
            members.append(
                self._run_one_shot(name, algorithm, dataset, deadline, consider, prepared)
            )

        # Phase 2 — race the anytime members round-robin until the deadline.
        members.extend(
            self._race_anytime(racers, dataset, deadline, consider, prepared)
        )

        # Last resort — every member was skipped or failed (e.g.
        # a zero budget with no anytime racer): run the floor algorithm
        # unbudgeted so a deadline still yields a valid consensus.
        if best is None:
            members.append(self._forced_floor(names, dataset, consider, prepared))

        elapsed = time.perf_counter() - start
        if best is None:
            raise ReproError(
                f"portfolio produced no consensus for dataset {dataset.name!r}: "
                f"every member failed ({[m.describe() for m in members]})"
            )
        score, consensus, winner = best
        return PortfolioResult(
            consensus=consensus,
            score=score,
            algorithm=winner,
            budget_seconds=self.budget_seconds,
            elapsed_seconds=elapsed,
            members=members,
        )

    # ------------------------------------------------------------------ #
    def _forced_floor(
        self,
        names: list[str],
        dataset: Dataset,
        consider,
        prepared: PreparedDataset | None = None,
    ) -> MemberReport:
        """Unbudgeted floor run guaranteeing a consensus exists.

        Uses the floor algorithm (or the first candidate when the floor was
        explicitly disabled); it answers in microseconds, so running it past
        an exhausted deadline is the least-bad way to honour the "a deadline
        always yields a valid consensus" contract.  ``prepared`` is the
        portfolio's shared preparation plan, when one could be built.
        """
        name = _FLOOR_ALGORITHM if _FLOOR_ALGORITHM in names else names[0]
        tick = time.perf_counter()
        result = make_algorithm(name, seed=self.seed).aggregate(dataset, prepared=prepared)
        consider(int(result.score), result.consensus, name)
        return MemberReport(
            algorithm=name,
            mode="one-shot",
            status="finished",
            score=int(result.score),
            elapsed_seconds=time.perf_counter() - tick,
            reason="forced floor run: no other member produced a consensus",
        )

    def _run_one_shot(
        self,
        name: str,
        algorithm: RankAggregator,
        dataset: Dataset,
        deadline: float | None,
        consider,
        prepared: PreparedDataset | None = None,
    ) -> MemberReport:
        """Run one non-anytime member under the remaining budget,
        aggregating through the portfolio's shared plan (``prepared``)."""
        with _telemetry.span(
            "portfolio.member", algorithm=name, mode="one-shot"
        ) as member_span:
            report = self._run_one_shot_inner(
                name, algorithm, dataset, deadline, consider, prepared
            )
            if _telemetry.is_enabled():
                member_span.set(status=report.status)
                _telemetry.observe(
                    "portfolio.member.seconds",
                    report.elapsed_seconds,
                    algorithm=name,
                    mode="one-shot",
                    status=report.status,
                )
        return report

    def _run_one_shot_inner(
        self,
        name: str,
        algorithm: RankAggregator,
        dataset: Dataset,
        deadline: float | None,
        consider,
        prepared: PreparedDataset | None = None,
    ) -> MemberReport:
        attempt = 0
        spent = 0.0
        while True:
            remaining = None if deadline is None else deadline - time.perf_counter()
            if remaining is not None and remaining <= 0:
                if attempt:
                    # Retries burned the budget; the race's forced floor run
                    # (cheapest one-shot member, unbudgeted) still guarantees
                    # a consensus.
                    return MemberReport(
                        algorithm=name,
                        mode="one-shot",
                        status="failed",
                        score=None,
                        elapsed_seconds=spent,
                        reason=f"budget exhausted after {attempt} transient failure(s)",
                    )
                return MemberReport(
                    algorithm=name,
                    mode="one-shot",
                    status="skipped",
                    score=None,
                    reason="budget already exhausted",
                )
            estimate = self._estimated_cost(name, dataset)
            if remaining is not None and estimate > remaining:
                return MemberReport(
                    algorithm=name,
                    mode="one-shot",
                    status="skipped",
                    score=None,
                    reason=(
                        f"estimated cost {estimate:.2f}s exceeds the remaining "
                        f"budget {remaining:.2f}s"
                    ),
                )
            tick = time.perf_counter()
            try:
                # Fault-injection site "portfolio.member": crash / exception
                # rules follow the same transient-retry path as real
                # failures, and a slow rule's delay counts as member time.
                _faults.maybe_fire("portfolio.member", name, attempt)
                result = algorithm.aggregate(dataset, prepared=prepared)
            except (TransientRunError, WorkerCrashError) as error:
                spent += time.perf_counter() - tick
                attempt += 1
                if _telemetry.is_enabled():
                    _telemetry.count("portfolio.retry", algorithm=name)
                if attempt >= self.member_attempts:
                    return MemberReport(
                        algorithm=name,
                        mode="one-shot",
                        status="failed",
                        score=None,
                        elapsed_seconds=spent,
                        reason=(
                            f"transient failure persisted after {attempt} "
                            f"attempt(s): {error}"
                        ),
                    )
                continue
            except ReproError as error:
                return MemberReport(
                    algorithm=name,
                    mode="one-shot",
                    status="failed",
                    score=None,
                    reason=str(error),
                )
            elapsed = time.perf_counter() - tick
            spent += elapsed
            # An overrun cannot be interrupted, so its consensus is already
            # paid for: it competes like any other, only reported as late.
            consider(int(result.score), result.consensus, name)
            overran = remaining is not None and elapsed > remaining
            return MemberReport(
                algorithm=name,
                mode="one-shot",
                status="over-budget" if overran else "finished",
                score=int(result.score),
                elapsed_seconds=spent,
                reason="run overran the remaining budget" if overran else None,
            )

    def _race_anytime(
        self,
        racers: list[tuple[str, RankAggregator]],
        dataset: Dataset,
        deadline: float | None,
        consider,
        prepared: PreparedDataset | None = None,
    ) -> list[MemberReport]:
        """Round-robin the anytime members until the deadline or exhaustion.

        Every racer starts from the portfolio's shared plan (``prepared``):
        the O(m·n²) pairwise construction happens once for the whole race,
        not once per member, inside the budget.
        """
        with _telemetry.span("portfolio.race", racers=len(racers)):
            return self._race_anytime_inner(
                racers, dataset, deadline, consider, prepared
            )

    def _race_anytime_inner(
        self,
        racers: list[tuple[str, RankAggregator]],
        dataset: Dataset,
        deadline: float | None,
        consider,
        prepared: PreparedDataset | None = None,
    ) -> list[MemberReport]:
        reports: list[MemberReport] = []
        active: list[tuple[str, AnytimeController, float]] = []
        shared_weights = None if prepared is None else prepared.weights
        for name, algorithm in racers:
            try:
                controller = algorithm.begin_anytime(dataset, shared_weights)
            except ReproError as error:
                reports.append(
                    MemberReport(
                        algorithm=name,
                        mode="anytime",
                        status="failed",
                        score=None,
                        reason=str(error),
                    )
                )
                continue
            active.append((name, controller, 0.0))

        # Guarantee every racer one increment (its starting candidate) even
        # when the budget is already spent, then honour the deadline.
        round_index = 0
        while active:
            still_active: list[tuple[str, AnytimeController, float]] = []
            for name, controller, spent in active:
                if (
                    round_index > 0
                    and deadline is not None
                    and time.perf_counter() >= deadline
                ):
                    reports.append(
                        self._anytime_report(name, controller, spent, "cancelled")
                    )
                    continue
                tick = time.perf_counter()
                progressed = controller.step()
                spent += time.perf_counter() - tick
                if controller.best_score is not None:
                    consider(controller.best_score, controller.best_so_far(), name)
                if progressed:
                    still_active.append((name, controller, spent))
                else:
                    reports.append(
                        self._anytime_report(name, controller, spent, "finished")
                    )
            active = still_active
            round_index += 1
        return reports

    @staticmethod
    def _anytime_report(
        name: str, controller: AnytimeController, spent: float, status: str
    ) -> MemberReport:
        if _telemetry.is_enabled():
            _telemetry.observe(
                "portfolio.member.seconds",
                spent,
                algorithm=name,
                mode="anytime",
                status=status,
            )
        return MemberReport(
            algorithm=name,
            mode="anytime",
            status=status,
            score=controller.best_score,
            steps=controller.steps,
            elapsed_seconds=spent,
        )

    @staticmethod
    def _estimated_cost(name: str, dataset: Dataset) -> float:
        """Pessimistic wall-clock estimate for a one-shot member.

        Only the known-exponential solvers get a real estimate (they
        cannot be interrupted once started); everything else is treated as
        effectively free so it is always attempted.
        """
        if name not in _EXPONENTIAL_SOLVERS:
            return 0.0
        n = dataset.num_elements
        # Calibrated very roughly on the exact LPB solver: comfortable well
        # under a second up to ~10 elements, then growing exponentially.
        return 0.005 * (2.0 ** max(0, n - 8))
