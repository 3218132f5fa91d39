"""ExactSubsetDP as a per-mask pure-Python enumeration and as a per-state loop."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.algorithms import ExactSubsetDP
from repro.algorithms.exact_dp import _subset_sums


class ExactSubsetDPOracle(ExactSubsetDP):
    """:class:`~repro.algorithms.ExactSubsetDP` with Python loops end to end."""

    def _solve(
        self, n: int, cost_before: np.ndarray, cost_tied: np.ndarray
    ) -> list[list[int]]:
        # rowsum[a][mask] = Σ_{b in mask} cost_before[a, b], built incrementally.
        rowsum = np.zeros((n, 1 << n), dtype=np.int64)
        for a in range(n):
            for mask in range(1, 1 << n):
                low = mask & -mask
                b = low.bit_length() - 1
                rowsum[a, mask] = rowsum[a, mask ^ low] + cost_before[a, b]

        # ties[mask] = internal tie cost of the bucket encoded by mask.
        ties = np.zeros(1 << n, dtype=np.int64)
        tied_rowsum = np.zeros((n, 1 << n), dtype=np.int64)
        for a in range(n):
            for mask in range(1, 1 << n):
                low = mask & -mask
                b = low.bit_length() - 1
                tied_rowsum[a, mask] = tied_rowsum[a, mask ^ low] + cost_tied[a, b]
        for mask in range(1, 1 << n):
            low = mask & -mask
            a = low.bit_length() - 1
            rest = mask ^ low
            ties[mask] = ties[rest] + tied_rowsum[a, rest]

        @lru_cache(maxsize=None)
        def solve(remaining: int) -> tuple[int, int]:
            """Return (optimal cost, first-bucket mask) for the remaining set."""
            if remaining == 0:
                return 0, 0
            best_cost: int | None = None
            best_bucket = 0
            bucket = remaining
            while bucket:
                rest = remaining ^ bucket
                cross = 0
                probe = bucket
                while probe:
                    low = probe & -probe
                    a = low.bit_length() - 1
                    cross += int(rowsum[a, rest])
                    probe ^= low
                candidate = cross + int(ties[bucket]) + solve(rest)[0]
                if best_cost is None or candidate < best_cost:
                    best_cost = candidate
                    best_bucket = bucket
                bucket = (bucket - 1) & remaining
            assert best_cost is not None
            return best_cost, best_bucket

        full = (1 << n) - 1
        optimal_cost, _ = solve(full)
        self._optimal_score = optimal_cost

        # Reconstruct the buckets by replaying the optimal decisions.
        buckets: list[list[int]] = []
        remaining = full
        while remaining:
            _, bucket_mask = solve(remaining)
            bucket = [i for i in range(n) if bucket_mask & (1 << i)]
            buckets.append(bucket)
            remaining ^= bucket_mask
        solve.cache_clear()
        return buckets


def _pair_sums(rowsum: np.ndarray, colsum: np.ndarray) -> np.ndarray:
    """``out[mask] = Σ_{a, b ∈ mask} cost[a, b]`` from the subset-sum tables.

    Lowest-bit recurrence, vectorised over all masks sharing a lowest bit:
    adding element ``a0`` to ``rest`` adds its row and column sums over
    ``rest`` (the diagonal is zero).
    """
    n = rowsum.shape[0]
    out = np.zeros(1 << n, dtype=np.int64)
    for b in range(n - 1, -1, -1):
        rests = np.arange(1 << (n - 1 - b), dtype=np.int64) << (b + 1)
        out[rests | (1 << b)] = out[rests] + rowsum[b, rests] + colsum[b, rests]
    return out


class ExactSubsetDPStateLoopOracle(ExactSubsetDP):
    """:class:`~repro.algorithms.ExactSubsetDP` with one Python iteration per
    subset state, each scoring all of the state's buckets with NumPy."""

    def _solve(
        self, n: int, cost_before: np.ndarray, cost_tied: np.ndarray
    ) -> list[list[int]]:
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
