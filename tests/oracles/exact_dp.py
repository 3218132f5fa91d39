"""ExactSubsetDP as a per-mask pure-Python enumeration."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.algorithms import ExactSubsetDP


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
