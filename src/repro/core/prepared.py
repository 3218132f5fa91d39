"""Shared dataset-preparation plans.

Every algorithm of the paper's Table 1 consumes the same derived structure
of a dataset: the canonical element order, the dense (m × n) position
tensor (:mod:`repro.core.arrays`) and the pairwise weight matrices
(:class:`~repro.core.pairwise.PairwiseWeights`).  Building that structure
is the O(m·n²) part of an aggregation call — and the experiment pipeline
runs *every* algorithm over the *same* datasets, so rebuilding it inside
each ``aggregate()`` call repeats identical work once per algorithm, again
for the post-run Kemeny score and once more per portfolio candidate.

A :class:`PreparedDataset` is the computed-once bundle those consumers
share: like a query plan, it is built a single time per dataset and every
downstream operator (algorithm run, candidate scoring, anytime racer)
reuses it.  Plans are obtained through

* :func:`prepare_rankings` for a plain sequence of rankings (always builds);
* :meth:`repro.datasets.Dataset.prepared` for datasets — memoized on the
  (immutable) dataset instance, so repeated calls are free;
* the **worker-local plan cache** (:func:`cached_plan` / :func:`store_plan`)
  keyed by the dataset content fingerprint: process-pool workers receive a
  fresh unpickled ``Dataset`` per work item, so the instance memo never
  hits — the fingerprint-keyed cache lets each worker prepare a dataset
  once and reuse the plan across all the specs it executes for it.

All structures in a plan are read-only and content-derived: sharing one
plan across algorithms, threads or repeated calls can never change a
result (the equivalence suite in ``tests/algorithms`` asserts exactly
that, registry-wide).
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from collections.abc import Sequence

import numpy as np

from .kemeny import generalized_kemeny_score_from_weights
from .pairwise import PairwiseWeights
from .ranking import Element, Ranking, format_ranking

__all__ = [
    "PreparedDataset",
    "prepare_rankings",
    "rankings_fingerprint",
    "cached_plan",
    "store_plan",
    "plan_build_count",
    "clear_plan_cache",
    "plan_cache_limit",
    "set_plan_cache_limit",
]

# How many plans a worker keeps alive at once.  Engine shards contain a
# handful of datasets; the LRU bound keeps long-lived workers (and serve
# sessions whose LiveDatasets churn a fresh fingerprint on every write)
# from pinning every O(n²) matrix pair they ever prepared.  Configurable
# via :func:`set_plan_cache_limit`.
_DEFAULT_PLAN_CACHE_MAX = 8
_plan_cache_max = _DEFAULT_PLAN_CACHE_MAX

_plan_cache: "OrderedDict[str, PreparedDataset]" = OrderedDict()

# Number of plans actually *built* (not served from any cache) since import;
# tests and benchmarks assert reuse against it.
_build_count = 0


def rankings_fingerprint(rankings: Sequence[Ranking]) -> str:
    """Content digest of a sequence of rankings.

    Hashes the canonical text serialization
    (:func:`~repro.core.ranking.format_ranking`, the paper's distribution
    format), so the digest is identical to the engine's
    ``dataset_fingerprint`` for a dataset holding the same rankings —
    worker-local plan cache keys and persistent result-cache keys agree.

    Parameters
    ----------
    rankings:
        The rankings to digest, in dataset order.
    """
    text = "\n".join(format_ranking(ranking) for ranking in rankings)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class PreparedDataset:
    """The computed-once preparation plan of a complete dataset.

    Attributes
    ----------
    rankings:
        The input rankings the plan was built from (tuple, dataset order).
    elements:
        The common domain in canonical sorted order; every array of the
        plan is indexed consistently with it.
    positions:
        The dense (m × n) position tensor (read-only): ``positions[k, i]``
        is the bucket index of ``elements[i]`` in ``rankings[k]``.
    weights:
        The pairwise weight matrices built from the tensor.
    prepare_seconds:
        Wall-clock time spent building the plan.
    """

    __slots__ = ("rankings", "elements", "positions", "weights", "prepare_seconds", "_fingerprint")

    def __init__(
        self,
        rankings: Sequence[Ranking],
        *,
        fingerprint: str | None = None,
    ):
        """Build the plan for ``rankings`` (use :func:`prepare_rankings`).

        Parameters
        ----------
        rankings:
            The complete, non-empty dataset to prepare.
        fingerprint:
            Pre-computed content digest; computed lazily on first access
            when omitted.
        """
        start = time.perf_counter()
        self.rankings: tuple[Ranking, ...] = tuple(rankings)
        self.weights = PairwiseWeights(self.rankings)
        self.elements: list[Element] = self.weights.elements
        self.positions: np.ndarray = self.weights.positions
        self._fingerprint = fingerprint
        self.prepare_seconds = time.perf_counter() - start

    @classmethod
    def from_weights(
        cls,
        rankings: Sequence[Ranking],
        weights: PairwiseWeights,
        *,
        fingerprint: str | None = None,
        prepare_seconds: float = 0.0,
    ) -> "PreparedDataset":
        """Assemble a plan around already-built pairwise weights.

        The delta-maintenance path of :class:`~repro.core.live.LiveDataset`
        produces weights without ever running the O(m·n²) construction; this
        constructor packages them as a regular plan so the whole engine /
        portfolio / service stack consumes live snapshots unchanged.

        Parameters
        ----------
        rankings:
            The rankings ``weights`` describes, in dataset order.
        weights:
            The pairwise weight matrices (read-only, content-derived).
        fingerprint:
            Pre-computed content digest; computed lazily when omitted.
        prepare_seconds:
            Wall-clock cost to attribute to the plan (the delta-update time,
            not a full rebuild).
        """
        plan = object.__new__(cls)
        plan.rankings = tuple(rankings)
        plan.weights = weights
        plan.elements = weights.elements
        plan.positions = weights.positions
        plan._fingerprint = fingerprint
        plan.prepare_seconds = prepare_seconds
        return plan

    # ------------------------------------------------------------------ #
    @property
    def num_rankings(self) -> int:
        """Number of input rankings ``m``."""
        return len(self.rankings)

    @property
    def num_elements(self) -> int:
        """Number of elements ``n`` in the common domain."""
        return len(self.elements)

    @property
    def fingerprint(self) -> str:
        """Content digest of the prepared rankings (computed on demand)."""
        if self._fingerprint is None:
            self._fingerprint = rankings_fingerprint(self.rankings)
        return self._fingerprint

    def score(self, consensus: Ranking) -> int:
        """Generalized Kemeny score of ``consensus`` from the plan's weights.

        O(n²), independent of the number of input rankings — the scoring
        routine every prepared aggregation call uses.

        Parameters
        ----------
        consensus:
            Candidate consensus over the plan's domain.
        """
        return generalized_kemeny_score_from_weights(consensus, self.weights)

    def matches(self, rankings: Sequence[Ranking]) -> bool:
        """Check that the plan describes exactly ``rankings``.

        Guards ``aggregate(dataset, prepared=...)`` against a plan built
        for a different dataset.  Each ranking is compared by identity
        first (the normal flow hands back the very objects the plan was
        built from, so this is O(m)) with an equality fallback — sibling
        datasets sharing shape and domain but not content are rejected.

        Parameters
        ----------
        rankings:
            The rankings about to be aggregated with this plan.
        """
        if len(rankings) != len(self.rankings):
            return False
        return all(
            theirs is mine or theirs == mine
            for theirs, mine in zip(rankings, self.rankings)
        )

    def __repr__(self) -> str:
        return (
            f"PreparedDataset(m={self.num_rankings}, n={self.num_elements}, "
            f"prepare_seconds={self.prepare_seconds:.4f})"
        )


def prepare_rankings(
    rankings: Sequence[Ranking], *, fingerprint: str | None = None
) -> PreparedDataset:
    """Build a :class:`PreparedDataset` for a sequence of rankings.

    Always builds (no cache lookup) — dataset-level memoization lives on
    :meth:`repro.datasets.Dataset.prepared`, which combines the instance
    memo with the worker-local cache before falling back to this builder.

    Parameters
    ----------
    rankings:
        The complete, non-empty dataset to prepare.
    fingerprint:
        Optional pre-computed content digest stored on the plan.
    """
    global _build_count
    plan = PreparedDataset(rankings, fingerprint=fingerprint)
    _build_count += 1
    return plan


# --------------------------------------------------------------------------- #
# Worker-local plan cache (fingerprint-keyed)
# --------------------------------------------------------------------------- #
def cached_plan(fingerprint: str) -> PreparedDataset | None:
    """Look a plan up in the worker-local cache.

    Parameters
    ----------
    fingerprint:
        Content digest of the dataset (see :func:`rankings_fingerprint`).
    """
    plan = _plan_cache.get(fingerprint)
    if plan is not None:
        _plan_cache.move_to_end(fingerprint)
    return plan


def store_plan(fingerprint: str, plan: PreparedDataset) -> None:
    """Store a plan in the worker-local cache (LRU-bounded).

    Parameters
    ----------
    fingerprint:
        Content digest the plan is addressed under.
    plan:
        The prepared plan to keep.
    """
    _plan_cache[fingerprint] = plan
    _plan_cache.move_to_end(fingerprint)
    evicted = 0
    while len(_plan_cache) > _plan_cache_max:
        _plan_cache.popitem(last=False)
        evicted += 1
    if evicted:
        # Imported lazily: repro.telemetry imports repro.core at module load.
        from ..telemetry import runtime as _telemetry

        if _telemetry.is_enabled():
            _telemetry.count("plan_cache.evict", evicted)


def plan_build_count() -> int:
    """Number of plans built (not cache-served) since process start.

    The reuse tests snapshot this counter around an engine batch to assert
    "one plan per dataset".
    """
    return _build_count


def clear_plan_cache() -> None:
    """Drop every worker-local cached plan (tests / memory pressure)."""
    _plan_cache.clear()


def plan_cache_limit() -> int:
    """Current LRU capacity of the worker-local plan cache."""
    return _plan_cache_max


def set_plan_cache_limit(limit: int | None) -> int:
    """Set the LRU capacity of the worker-local plan cache.

    Long-running serve sessions whose LiveDatasets churn a fresh
    fingerprint on every write stream plans through this cache; the bound
    is what keeps that churn from becoming a memory leak.  Shrinking the
    limit evicts immediately (ticking the ``plan_cache.evict`` telemetry
    counter through :func:`store_plan`'s eviction path).

    Parameters
    ----------
    limit:
        New capacity (must be >= 1); ``None`` restores the default.

    Returns
    -------
    int
        The previous capacity (so tests can restore it).
    """
    global _plan_cache_max
    if limit is None:
        limit = _DEFAULT_PLAN_CACHE_MAX
    if limit < 1:
        raise ValueError(f"plan cache limit must be >= 1, got {limit}")
    previous = _plan_cache_max
    _plan_cache_max = limit
    evicted = 0
    while len(_plan_cache) > _plan_cache_max:
        _plan_cache.popitem(last=False)
        evicted += 1
    if evicted:
        from ..telemetry import runtime as _telemetry

        if _telemetry.is_enabled():
            _telemetry.count("plan_cache.evict", evicted)
    return previous
