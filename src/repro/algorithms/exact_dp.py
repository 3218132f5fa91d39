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

over subsets encoded as bitmasks.  The total work is Θ(3^n), all of it in
NumPy: ``cross(B, S\\B)`` decomposes into ``Σ_{a∈B} rowsum[a, S]`` (a
subset-sum table built by doubling) plus a per-bucket term that depends on
``B`` alone.  A state of ``k`` elements depends only on smaller states, so
the recurrence runs one popcount level at a time: every (state, submask)
pair of the level is scored by the same few array operations, in blocks of
a fixed number of entries (``_BLOCK_ENTRIES``) so that the working arrays
stay cache-sized and peak memory does not grow with the level.

Among equally good buckets the largest bitmask wins, so the reconstructed
optimal ranking is deterministic, ties included.  The practical ceiling is
n = 16 (the default ``max_elements``).
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
# (state, submask) entries scored per block of a popcount level.  Fixed, not
# sized from the level: at 2^15 a block's arrays stay cache-sized, and larger
# blocks measured both slower and higher in peak memory.
_BLOCK_ENTRIES = 1 << 15


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


def _bucket_base(cost_before: np.ndarray, cost_tied: np.ndarray) -> np.ndarray:
    """``base[mask] = ties(mask) − Σ_{a, b ∈ mask} cost_before[a, b]``.

    Lowest-bit recurrence over one subset-sum table: adding element ``a0``
    to ``rest`` adds ``Σ_{b ∈ rest} D[a0, b]`` with ``D = cost_tied −
    cost_before − cost_beforeᵀ`` (each tied pair once, each ordered
    before-pair both ways; the diagonal is never read).
    """
    n = cost_before.shape[0]
    pair_sums = _subset_sums(cost_tied - cost_before - cost_before.T)
    base = np.zeros(1 << n, dtype=np.int64)
    for b in range(n - 1, -1, -1):
        rests = np.arange(1 << (n - 1 - b), dtype=np.int64) << (b + 1)
        base[rests | (1 << b)] = base[rests] + pair_sums[b, rests]
    return base


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
            Θ(3^n)); the default of 16 is practical for the level pass.
        """
        if isinstance(max_elements, bool) or not isinstance(max_elements, int) or max_elements < 0:
            raise ValueError(f"max_elements must be an int >= 0, got {max_elements!r}")
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
        """Bottom-up DP, one popcount level at a time.

        A bucket ``B ⊆ S`` scores ``h(B) + base[B] + opt[S \\ B]``, where
        ``h(B) = Σ_{a∈B} rowsum[a, S]`` and ``base[B] = ties[B] − g[B]``
        with ``g[B] = Σ_{a,b∈B} cost_before[a, b]`` correcting the
        overcount, so ``h(B) − g[B] = cross(B, S\\B)`` exactly.  Level ``k``
        takes its states in blocks of ``_BLOCK_ENTRIES`` (state, submask)
        entries (at least one state); ``k`` doublings over each state's bits
        in increasing order list its submasks in increasing mask order, with
        their ``h``.  The last minimum of a row, i.e. the largest minimising
        submask, is the state's bucket.
        """
        rowsum = _subset_sums(cost_before)
        base = _bucket_base(cost_before, cost_tied)
        n_states = 1 << n
        opt = np.zeros(n_states, dtype=np.int64)
        choice = np.zeros(n_states, dtype=np.int64)
        popcount = np.zeros(1, dtype=np.int64)
        for _ in range(n):
            popcount = np.concatenate((popcount, popcount + 1))
        shifts = np.arange(n, dtype=np.int64)
        for k in range(1, n + 1):
            level = np.flatnonzero(popcount == k)
            width = 1 << k
            step = max(1, _BLOCK_ENTRIES // width)
            for start in range(0, level.size, step):
                states = level[start : start + step]
                bits = np.nonzero((states[:, None] >> shifts) & 1)[1]
                subs = np.zeros((states.size, 1), dtype=np.int64)
                hsum = np.zeros((states.size, 1), dtype=np.int64)
                for bit in bits.reshape(-1, k).T:
                    subs = np.concatenate((subs, subs | (1 << bit)[:, None]), axis=1)
                    hsum = np.concatenate((hsum, hsum + rowsum[bit, states][:, None]), axis=1)
                subs = subs[:, 1:]
                candidates = hsum[:, 1:] + base[subs] + opt[states[:, None] ^ subs]
                # Last minimum of each row: the largest minimising submask.
                best = width - 2 - np.argmin(candidates[:, ::-1], axis=1)
                rows = np.arange(states.size)
                opt[states] = candidates[rows, best]
                choice[states] = subs[rows, best]

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
