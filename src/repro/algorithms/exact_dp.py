"""Exact consensus by dynamic programming over element subsets.

This solver is *not* part of the paper's algorithm catalogue: it is an
independent exact oracle used by the test suite to validate the LPB integer
program (Section 4.2) and the generalized Kemeny score machinery on small
instances, and it gives a solver-free exact option for tiny datasets.

The optimal consensus is built bucket by bucket from the best-ranked one.
For a set ``S`` of still-unplaced elements, choosing ``B ⊆ S`` as the next
bucket costs

* ``Σ_{a ∈ B, b ∈ S\\B} cost(a before b)``  (every remaining element ends up
  after the bucket), plus
* ``Σ_{{a,b} ⊆ B} cost(a tied b)``          (the bucket's internal ties),

and the interaction of ``B`` with the elements already placed was paid when
those buckets were chosen.  Hence the Bellman equation

    opt(S) = min_{∅ ≠ B ⊆ S} [ cross(B, S\\B) + ties(B) + opt(S\\B) ]

over subsets encoded as bitmasks.  The total work is Θ(3^n); the
recurrence runs on NumPy subset-sum tables: the per-subset row sums are
built by doubling (``O(n·2^n)`` vectorised), ``cross(B, S\\B)`` decomposes
into ``Σ_{a∈B} rowsum[a, S] − Σ_{a,b∈B} cost(a before b)`` so each state
``S`` evaluates *all* its ``2^|S|`` candidate buckets with a handful of
array ops — no per-submask Python walk, no per-element popcount loop.

Among equally good buckets the first one in decreasing bitmask order wins,
so the reconstructed optimal ranking is deterministic, ties included.  The
vectorised recurrence puts the practical ceiling at n = 16 (the default
``max_elements``).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.exceptions import AlgorithmNotApplicableError
from ..core.pairwise import PairwiseWeights
from ..core.ranking import Ranking
from .base import RankAggregator

__all__ = ["ExactSubsetDP"]

_MAX_ELEMENTS = 16


def _subset_sums(costs: np.ndarray) -> np.ndarray:
    """``table[a, mask] = Σ_{b ∈ mask} costs[a, b]`` for every bitmask.

    Built by doubling: appending bit ``b`` maps the table over masks of
    bits ``< b`` to the masks containing ``b``.  O(n·2^n) cells, fully
    vectorised.

    Parameters
    ----------
    costs:
        (n × n) integer cost matrix.
    """
    n = costs.shape[0]
    table = np.zeros((n, 1), dtype=np.int64)
    for b in range(n):
        table = np.concatenate((table, table + costs[:, b : b + 1]), axis=1)
    return table


def _pair_sums(rowsum: np.ndarray, colsum: np.ndarray) -> np.ndarray:
    """``out[mask] = Σ_{a, b ∈ mask} cost[a, b]`` from the subset-sum tables.

    Lowest-bit recurrence, vectorised over all masks sharing a lowest bit:
    adding element ``a0`` to ``rest`` adds its row and column sums over
    ``rest`` (the diagonal is zero).

    Parameters
    ----------
    rowsum:
        ``rowsum[a, mask] = Σ_{b ∈ mask} cost[a, b]``.
    colsum:
        ``colsum[a, mask] = Σ_{b ∈ mask} cost[b, a]``.
    """
    n = rowsum.shape[0]
    out = np.zeros(1 << n, dtype=np.int64)
    for b in range(n - 1, -1, -1):
        rests = np.arange(1 << (n - 1 - b), dtype=np.int64) << (b + 1)
        out[rests | (1 << b)] = out[rests] + rowsum[b, rests] + colsum[b, rests]
    return out


class ExactSubsetDP(RankAggregator):
    """Exact consensus with ties via Θ(3^n) subset dynamic programming."""

    name = "ExactSubsetDP"
    family = "G"
    approximation = "exact"
    produces_ties = True
    accounts_for_tie_cost = True
    randomized = False

    def __init__(
        self,
        *,
        max_elements: int = _MAX_ELEMENTS,
        seed: int | None = None,
    ):
        """
        Parameters
        ----------
        max_elements:
            Refuse datasets with more elements than this (the DP is
            Θ(3^n)); the default of 16 is practical for the vectorised
            recurrence.
        """
        super().__init__(seed=seed)
        self._max_elements = max_elements
        self._optimal_score: int | None = None

    def _aggregate(
        self, rankings: Sequence[Ranking], weights: PairwiseWeights
    ) -> Ranking:
        n = weights.num_elements
        if n > self._max_elements:
            raise AlgorithmNotApplicableError(
                f"ExactSubsetDP handles at most {self._max_elements} elements "
                f"(got {n}); use ExactAlgorithm (MILP) for larger instances"
            )
        cost_before = weights.cost_before().astype(np.int64)
        cost_tied = weights.cost_tied().astype(np.int64)
        buckets = self._solve(n, cost_before, cost_tied)
        return Ranking(
            [[weights.elements[i] for i in bucket] for bucket in buckets]
        )

    # ------------------------------------------------------------------ #
    def _solve(
        self, n: int, cost_before: np.ndarray, cost_tied: np.ndarray
    ) -> list[list[int]]:
        """Bottom-up DP with vectorised per-state bucket evaluation.

        For a state ``S``, every candidate bucket ``B ⊆ S`` is scored as
        ``(h(B) − g[B]) + ties[B] + opt[S \\ B]`` where ``h(B) =
        Σ_{a∈B} rowsum[a, S]`` (a subset-sum over ``S`` built by doubling)
        and ``g[B] = Σ_{a,b∈B} cost_before[a, b]`` corrects the overcount —
        so ``h(B) − g[B] = cross(B, S\\B)`` exactly.  The argmin below
        picks the largest minimising submask: the first minimum in
        decreasing mask order.
        """
        rowsum = _subset_sums(cost_before)
        colsum = _subset_sums(cost_before.T)
        tied_rowsum = _subset_sums(cost_tied)
        # ties[mask]: internal tie cost = half the ordered-pair sum; built
        # directly from the (symmetric) tied table's lowest-bit recurrence.
        n_states = 1 << n
        ties = np.zeros(n_states, dtype=np.int64)
        for b in range(n - 1, -1, -1):
            rests = np.arange(1 << (n - 1 - b), dtype=np.int64) << (b + 1)
            ties[rests | (1 << b)] = ties[rests] + tied_rowsum[b, rests]
        g = _pair_sums(rowsum, colsum)

        opt = np.zeros(n_states, dtype=np.int64)
        choice = np.zeros(n_states, dtype=np.int64)
        for state in range(1, n_states):
            subs = np.zeros(1, dtype=np.int64)
            hsum = np.zeros(1, dtype=np.int64)
            probe = state
            while probe:
                low = probe & -probe
                b = low.bit_length() - 1
                subs = np.concatenate((subs, subs | low))
                hsum = np.concatenate((hsum, hsum + rowsum[b, state]))
                probe ^= low
            buckets = subs[1:]
            candidates = (
                hsum[1:] - g[buckets] + ties[buckets] + opt[state ^ buckets]
            )
            # First minimum in decreasing mask order == last in increasing.
            best = candidates.size - 1 - int(np.argmin(candidates[::-1]))
            opt[state] = candidates[best]
            choice[state] = buckets[best]

        full = n_states - 1
        self._optimal_score = int(opt[full])
        result: list[list[int]] = []
        remaining = full
        while remaining:
            bucket_mask = int(choice[remaining])
            result.append([i for i in range(n) if bucket_mask & (1 << i)])
            remaining ^= bucket_mask
        return result

    def _last_details(self) -> dict[str, object]:
        return {"optimal_score": self._optimal_score}
