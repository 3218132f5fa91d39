"""Kill-restart churn: prove no acknowledged write survives only in RAM.

The churn workload (:mod:`repro.workloads.churn`) verifies the
delta-maintenance math; this module verifies the *durability* claim on
top of it.  A child process applies a pre-materialised mutation stream
through a journaled :class:`~repro.service.live.LiveAggregationSession`,
acknowledging each write over a pipe only after the journal append
returned.  The parent SIGKILLs the child at seeded points mid-stream —
no atexit, no flush-on-shutdown, the genuine worst case — then replays
the journal and checks the recovery invariant:

* every acknowledged mutation is in the replayed state
  (``recovered generation >= acks received``);
* a torn trailing record (the append the kill interrupted) is truncated,
  never mistaken for data;
* the next round resumes exactly at the recovered generation, so the
  stream is applied once — no loss, no double-apply.

After the final (uninterrupted) round the replayed pairwise weight
matrices must be byte-identical to a from-scratch
:func:`~repro.core.prepared.prepare_rankings` of the replayed rankings,
whose content fingerprint must match the same stream applied to a fresh
dataset.

The ``repro-rankagg recovery-churn`` command is a thin wrapper over
:func:`run_kill_restart_churn`; the CI ``recovery`` job runs it as the
crash-safety smoke.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from ..core.journal import journal_exists, replay_journal
from ..core.live import LiveDataset
from ..service.live import LiveAggregationSession
from .churn import ChurnProfile, build_mutation_stream, weights_match_rebuild
from .scenario import get_scenario

__all__ = ["KillRestartProfile", "run_kill_restart_churn"]


@dataclass(frozen=True)
class KillRestartProfile:
    """Shape of a kill-restart churn run.

    Attributes
    ----------
    scenario:
        Scenario whose first dataset seeds the live population.
    scale:
        Scenario scale preset the dataset is built at.
    num_mutations:
        Total writes in the stream (across all restarts).
    kill_points:
        Acknowledged-write counts at which the worker is SIGKILLed; each
        restart resumes from the recovered generation.  Must be strictly
        increasing and below ``num_mutations`` (the final round runs to
        completion).
    repair_every:
        Acknowledged writes between consensus repairs inside the worker
        (repair records exercise the warm-start path across restarts).
    fsync:
        Journal durability policy of the worker sessions.
    algorithm:
        Registry name of the anytime algorithm running the repairs.
    budget_seconds:
        Per-repair time budget.
    seed:
        Base seed for dataset generation and the mutation draw.
    """

    scenario: str = "mallows-ties-diffuse"
    scale: str = "smoke"
    num_mutations: int = 40
    kill_points: tuple[int, ...] = (12, 27)
    repair_every: int = 8
    fsync: str = "batch"
    algorithm: str = "BioConsert"
    budget_seconds: float | None = 0.1
    seed: int = 2015

    def __post_init__(self) -> None:
        if self.repair_every < 1:
            raise ValueError(f"repair_every must be >= 1, got {self.repair_every}")
        points = tuple(self.kill_points)
        if any(b <= a for a, b in zip(points, points[1:])):
            raise ValueError(f"kill_points must be increasing, got {points}")
        if points and points[-1] >= self.num_mutations:
            raise ValueError(
                f"kill_points {points} must stay below "
                f"num_mutations={self.num_mutations} so the final round "
                "has work left"
            )

    def describe(self) -> dict[str, Any]:
        """Flat dictionary form (embedded in the report payload)."""
        return {**asdict(self), "kill_points": list(self.kill_points)}


def _churn_worker(
    journal_dir: str,
    base_rankings: list[Any],
    stream: list[dict[str, Any]],
    profile: KillRestartProfile,
    conn: Any,
) -> None:
    """Apply the stream tail through a journaled session, acking each write.

    Runs in a child process.  The ack for write ``k`` is sent only after
    its journal append returned — the exact moment a server would answer
    the client — so a SIGKILL can never catch an acknowledged write
    outside the journal.
    """
    directory = Path(journal_dir)
    if journal_exists(directory):
        session = LiveAggregationSession.recover(
            directory,
            algorithm=profile.algorithm,
            budget_seconds=profile.budget_seconds,
            seed=profile.seed,
            journal_fsync=profile.fsync,
        )
    else:
        session = LiveAggregationSession(
            base_rankings,
            algorithm=profile.algorithm,
            budget_seconds=profile.budget_seconds,
            seed=profile.seed,
            journal_dir=directory,
            journal_fsync=profile.fsync,
        )
    offset = session.dataset.generation  # mutations already recovered
    conn.send(("resumed", offset))
    for position in range(offset, len(stream)):
        session.mutate(stream[position])
        conn.send(("ack", position + 1))
        if (position + 1) % profile.repair_every == 0:
            session.repair()
    session.repair()
    session.close()
    conn.send(("done", len(stream)))
    conn.close()


def run_kill_restart_churn(
    profile: KillRestartProfile | None = None,
    *,
    journal_dir: str | Path | None = None,
) -> dict[str, Any]:
    """SIGKILL a journaled churn worker mid-stream; verify nothing acked is lost.

    Parameters
    ----------
    profile:
        Run shape; defaults to :class:`KillRestartProfile`'s defaults.
    journal_dir:
        Journal location (a temporary directory must be provided by the
        caller when running repeatedly; defaults to
        ``kill_restart_journal`` under the working directory).

    Returns
    -------
    dict
        Machine-readable payload: the profile, one entry per round
        (acks received, recovered generation, truncated records, replay
        wall-clock) and the final byte-identity verification.
    """
    profile = profile or KillRestartProfile()
    directory = Path(journal_dir or "kill_restart_journal")
    directory.mkdir(parents=True, exist_ok=True)
    if any(directory.iterdir()):
        raise ValueError(f"journal_dir {directory} must start empty")

    base = get_scenario(profile.scenario).build(profile.scale, profile.seed)[0]
    reference = LiveDataset(base.rankings, name=f"recovery[{base.name}]")
    stream_profile = ChurnProfile(
        scenario=profile.scenario,
        scale=profile.scale,
        num_mutations=profile.num_mutations,
        algorithm=profile.algorithm,
        budget_seconds=profile.budget_seconds,
        seed=profile.seed,
    )
    stream = build_mutation_stream(reference, stream_profile)

    context = multiprocessing.get_context("fork")
    rounds: list[dict[str, Any]] = []
    targets = [*profile.kill_points, None]  # None = run to completion
    for target in targets:
        parent_conn, child_conn = context.Pipe(duplex=False)
        worker = context.Process(
            target=_churn_worker,
            args=(str(directory), list(base.rankings), stream, profile, child_conn),
        )
        worker.start()
        child_conn.close()
        acked = 0
        resumed_at = None
        finished = False
        while True:
            try:
                kind, value = parent_conn.recv()
            except EOFError:
                break
            if kind == "resumed":
                resumed_at = value
            elif kind == "ack":
                acked = value
                if target is not None and acked >= target:
                    os.kill(worker.pid, signal.SIGKILL)
                    break
            elif kind == "done":
                finished = True
                break
        worker.join()
        # Acks the child pushed into the pipe before dying were *sent*,
        # hence acknowledged: they count against the durability invariant.
        while parent_conn.poll():
            try:
                kind, value = parent_conn.recv()
            except EOFError:
                break
            if kind == "ack":
                acked = value
            elif kind == "done":
                finished = True
        parent_conn.close()

        replay_started = time.perf_counter()
        result = replay_journal(directory)
        replay_seconds = time.perf_counter() - replay_started
        lost = acked - result.generation
        rounds.append(
            {
                "killed": target is not None,
                "resumed_at": resumed_at,
                "acked": acked,
                "recovered_generation": result.generation,
                "lost_acks": max(0, lost),
                "truncated_records": result.truncated_records,
                "replayed_records": result.replayed_records,
                "from_snapshot": result.from_snapshot,
                "replay_seconds": replay_seconds,
                "finished": finished,
            }
        )
        if finished:
            break

    # Final verification: the same stream applied to a fresh dataset must
    # reproduce the recovered state bit for bit.
    final = replay_journal(directory)
    fresh = LiveDataset(base.rankings, name=final.dataset.name)
    for record in stream:
        fresh.apply(record)
    fingerprint_match = (
        final.dataset.content_fingerprint() == fresh.content_fingerprint()
    )
    return {
        "report": "kill-restart-churn",
        "profile": profile.describe(),
        "rounds": rounds,
        "kills": sum(1 for entry in rounds if entry["killed"]),
        "total_truncated_records": sum(r["truncated_records"] for r in rounds),
        "zero_lost_acks": all(r["lost_acks"] == 0 for r in rounds),
        "completed": rounds[-1]["finished"] if rounds else False,
        "final_generation": final.generation,
        "weights_match_rebuild": weights_match_rebuild(final.dataset),
        "fingerprint_match": fingerprint_match,
        "consensus_recovered": final.consensus is not None,
    }
