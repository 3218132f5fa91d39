"""Write-heavy churn workload: a mutation stream driving live serving.

The read-side counterpart (:mod:`repro.workloads.http_load`) replays a
skewed *request* stream; this module replays a *write* stream.  A scenario
dataset becomes the initial population of a
:class:`~repro.core.live.LiveDataset`, a seeded mix of
add / remove / update mutations churns it, and a
:class:`~repro.service.live.LiveAggregationSession` keeps the consensus
fresh — delta-updating the pairwise weights per write and warm-starting
every repair from the pre-mutation consensus.

The payload reports what the streaming-write machinery is for: per-write
delta cost (independent of the dataset size), repair wall-clock and
convergence deltas, cache invalidations — and a final byte-identical
verification of the delta-maintained weights against a from-scratch
rebuild.

The ``repro-rankagg churn`` command is a thin wrapper over
:func:`run_churn_load`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from ..core.live import LiveDataset
from ..core.prepared import prepare_rankings
from ..core.ranking import Ranking, format_ranking
from ..service.frontend import ServiceFrontend
from ..service.live import LiveAggregationSession
from .scenario import get_scenario

__all__ = ["ChurnProfile", "build_mutation_stream", "run_churn_load"]


@dataclass(frozen=True)
class ChurnProfile:
    """Shape of a synthetic write stream.

    Attributes
    ----------
    scenario:
        Scenario whose first dataset seeds the live population.
    scale:
        Scenario scale preset the dataset is built at.
    num_mutations:
        Total writes in the stream.
    mutation_mix:
        Relative weights of (add, remove, update) draws.
    repair_every:
        Writes between consensus repairs (1 = repair after every write).
    algorithm:
        Registry name of the anytime algorithm running the repairs.
    budget_seconds:
        Per-repair time budget (``None`` runs each repair to completion).
    seed:
        Base seed for dataset generation and the mutation draw.
    """

    scenario: str = "mallows-ties-diffuse"
    scale: str = "smoke"
    num_mutations: int = 30
    mutation_mix: tuple[float, float, float] = (0.4, 0.2, 0.4)
    repair_every: int = 1
    algorithm: str = "BioConsert"
    budget_seconds: float | None = 0.25
    seed: int = 2015

    def __post_init__(self) -> None:
        if self.repair_every < 1:
            raise ValueError(f"repair_every must be >= 1, got {self.repair_every}")
        if self.num_mutations < 0:
            raise ValueError(f"num_mutations must be >= 0, got {self.num_mutations}")
        mix = tuple(self.mutation_mix)
        valid = all(math.isfinite(weight) and weight >= 0 for weight in mix)
        if len(mix) != 3 or not valid or sum(mix) <= 0:
            raise ValueError(
                "mutation_mix must be three finite, non-negative weights "
                f"with a positive sum, got {mix}"
            )

    def describe(self) -> dict[str, Any]:
        """Flat dictionary form (embedded in the churn-report payload)."""
        return {**asdict(self), "mutation_mix": list(self.mutation_mix)}


def _random_ranking(elements: list[Any], rng: np.random.Generator) -> Ranking:
    """A random bucket order over ``elements`` (ties included)."""
    order = [elements[int(i)] for i in rng.permutation(len(elements))]
    buckets: list[list[Any]] = []
    index = 0
    while index < len(order):
        width = int(rng.integers(1, 4))
        buckets.append(order[index : index + width])
        index += width
    return Ranking(buckets)


def build_mutation_stream(
    dataset: LiveDataset,
    profile: ChurnProfile | None = None,
) -> list[dict[str, Any]]:
    """Materialise the seeded write stream for ``dataset``.

    Each item is a write record, the ``POST /live/{name}/mutate`` body
    that :meth:`~repro.core.live.LiveDataset.apply` and
    :meth:`~repro.service.live.LiveAggregationSession.mutate` take:
    ``{"op": "add", "index": None, "ranking": line}`` (append),
    ``{"op": "remove", "index": i}`` or
    ``{"op": "update", "index": i, "ranking": line}``.  Indices are drawn
    against the dataset size as the stream replays (removes are skipped
    in the draw while the dataset holds a single ranking).

    Parameters
    ----------
    dataset:
        The live dataset the stream will be applied to (its element domain
        shapes the generated rankings).
    profile:
        Stream shape; defaults to :class:`ChurnProfile`'s defaults.
    """
    profile = profile or ChurnProfile()
    rng = np.random.default_rng(
        np.random.SeedSequence([profile.seed, dataset.num_elements, profile.num_mutations])
    )
    elements = dataset.elements
    mix = np.asarray(profile.mutation_mix, dtype=float)
    mix = mix / mix.sum()
    stream: list[dict[str, Any]] = []
    size = dataset.num_rankings
    for _ in range(profile.num_mutations):
        kind = ("add", "remove", "update")[int(rng.choice(3, p=mix))]
        if kind == "remove" and size <= 1:
            kind = "add"
        if kind == "add":
            line = format_ranking(_random_ranking(elements, rng))
            stream.append({"op": "add", "index": None, "ranking": line})
            size += 1
        elif kind == "remove":
            stream.append({"op": "remove", "index": int(rng.integers(size))})
            size -= 1
        else:
            index = int(rng.integers(size))
            line = format_ranking(_random_ranking(elements, rng))
            stream.append({"op": "update", "index": index, "ranking": line})
    return stream


def weights_match_rebuild(live: LiveDataset) -> bool:
    """Whether the delta-maintained pairwise weights of ``live`` are
    byte-identical to a from-scratch preparation of its rankings."""
    maintained = live.weights()
    fresh = prepare_rankings(list(live.rankings)).weights
    return bool(
        np.array_equal(maintained.before_matrix, fresh.before_matrix)
        and np.array_equal(maintained.tied_matrix, fresh.tied_matrix)
    )


def run_churn_load(
    profile: ChurnProfile | None = None,
    *,
    frontend: ServiceFrontend | None = None,
) -> dict[str, Any]:
    """Replay a write stream through a live session and report statistics.

    Parameters
    ----------
    profile:
        Stream shape; defaults to :class:`ChurnProfile`'s defaults.
    frontend:
        Optional serving frontend whose cache the session keeps coherent
        (mutations invalidate, repairs re-publish).

    Returns
    -------
    dict
        Machine-readable payload: the profile, per-write delta timings,
        repair statistics (warm fraction, wall-clock, convergence deltas)
        and the final equivalence verification against a from-scratch
        preparation.
    """
    profile = profile or ChurnProfile()
    seed_datasets = get_scenario(profile.scenario).build(profile.scale, profile.seed)
    base = seed_datasets[0]
    live = LiveDataset(
        base.rankings, name=f"churn[{base.name}]", metadata=dict(base.metadata)
    )
    session = LiveAggregationSession(
        live,
        algorithm=profile.algorithm,
        frontend=frontend,
        budget_seconds=profile.budget_seconds,
        seed=profile.seed,
    )
    session.serve()  # initial cold solve
    stream = build_mutation_stream(live, profile)

    delta_seconds: list[float] = []
    repair_seconds: list[float] = []
    score_deltas: list[int] = []
    warm_repairs = 0
    invalidated = 0
    for position, record in enumerate(stream):
        session.mutate(record)
        delta_seconds.append(live.last_delta_seconds)
        if (position + 1) % profile.repair_every == 0:
            report = session.repair()
            repair_seconds.append(report.repair_seconds)
            warm_repairs += int(report.warm_start)
            invalidated += report.invalidated
            if report.score_delta is not None:
                score_deltas.append(report.score_delta)

    def _mean(sample: list[float]) -> float:
        return float(sum(sample) / len(sample)) if sample else 0.0

    return {
        "report": "churn-load",
        "profile": profile.describe(),
        "initial_rankings": base.num_rankings,
        "final_rankings": live.num_rankings,
        "num_elements": live.num_elements,
        "generations": live.generation,
        "delta_mean_seconds": _mean(delta_seconds),
        "delta_max_seconds": max(delta_seconds, default=0.0),
        "repairs": len(repair_seconds),
        "warm_repairs": warm_repairs,
        "repair_mean_seconds": _mean(repair_seconds),
        "repair_max_seconds": max(repair_seconds, default=0.0),
        "score_delta_total": int(sum(score_deltas)),
        "invalidated": invalidated,
        "weights_match_rebuild": weights_match_rebuild(live),
        "final_score": session.score,
    }
