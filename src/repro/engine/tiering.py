"""Cache tiering: an in-memory LRU tier layered over the disk ResultCache.

The disk :class:`~repro.engine.cache.ResultCache` makes re-runs free across
processes, but a request-serving frontend hits the same handful of keys
thousands of times per second — paying a file open + JSON parse per hit.
:class:`TieredResultCache` keeps the hottest records in a bounded
in-memory LRU tier (:class:`MemoryCacheTier`) in front of the disk store:

* a lookup first consults the memory tier (O(1), no I/O); on a memory miss
  it falls through to the disk tier and *promotes* the record into memory;
* a store writes through to both tiers, so a warm process never touches
  the disk for reads while other processes still see every record;
* invalidation and clearing propagate to both tiers; a filtered
  invalidation drops only the memory records that match the filter.

Both tiers and the combined cache expose the same duck-typed contract the
:class:`~repro.engine.engine.ExecutionEngine` consumes (``lookup`` /
``store`` / ``invalidate`` / ``clear`` / ``stats``), so a
``TieredResultCache`` can be dropped anywhere a ``ResultCache`` is used.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..telemetry import runtime as _telemetry
from .cache import CacheStats, ResultCache

__all__ = ["MemoryCacheTier", "TieredCacheStats", "TieredResultCache"]

DEFAULT_MEMORY_ENTRIES = 1024


class MemoryCacheTier:
    """Bounded in-memory LRU store of cache records.

    Parameters
    ----------
    max_entries:
        Capacity; inserting beyond it evicts the least-recently-used
        record.  Must be positive.
    """

    def __init__(self, max_entries: int = DEFAULT_MEMORY_ENTRIES):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._records: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------ #
    def lookup(self, key: str) -> dict[str, Any] | None:
        """Return the record for ``key`` (refreshing its recency) or ``None``."""
        record = self._records.get(key)
        if record is None:
            self._misses += 1
            return None
        self._records.move_to_end(key)
        self._hits += 1
        return record

    def store(self, key: str, record: dict[str, Any]) -> None:
        """Insert ``record`` under ``key``, evicting the LRU entry if full."""
        if key in self._records:
            self._records.move_to_end(key)
        self._records[key] = record
        while len(self._records) > self.max_entries:
            self._records.popitem(last=False)
            self._evictions += 1

    def invalidate(self, key: str) -> bool:
        """Drop one record; return whether it was present."""
        return self._records.pop(key, None) is not None

    def invalidate_matching(
        self,
        *,
        algorithm: str | None = None,
        dataset_fingerprint: str | None = None,
    ) -> int:
        """Drop the records whose fields match every given filter; return the count."""
        doomed = [
            key
            for key, record in self._records.items()
            if (algorithm is None or record.get("algorithm") == algorithm)
            and (
                dataset_fingerprint is None
                or record.get("dataset_fingerprint") == dataset_fingerprint
            )
        ]
        for key in doomed:
            del self._records[key]
        return len(doomed)

    def clear(self) -> int:
        """Drop every record; return the number removed."""
        removed = len(self._records)
        self._records.clear()
        return removed

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    @property
    def hits(self) -> int:
        """Session lookup hits."""
        return self._hits

    @property
    def misses(self) -> int:
        """Session lookup misses."""
        return self._misses

    @property
    def evictions(self) -> int:
        """Records evicted by the LRU policy this session."""
        return self._evictions

    def __repr__(self) -> str:
        return (
            f"MemoryCacheTier(entries={len(self._records)}, "
            f"max_entries={self.max_entries})"
        )


@dataclass(frozen=True)
class TieredCacheStats:
    """Combined accounting of the memory and disk tiers.

    Attributes
    ----------
    memory_entries, memory_max_entries:
        Current fill and capacity of the LRU tier.
    memory_hits, memory_misses, memory_evictions:
        Session counters of the LRU tier.
    disk:
        The disk tier's own :class:`~repro.engine.cache.CacheStats`.
    """

    memory_entries: int
    memory_max_entries: int
    memory_hits: int
    memory_misses: int
    memory_evictions: int
    disk: CacheStats

    @property
    def total_hits(self) -> int:
        """Hits served without executing anything (memory + disk)."""
        return self.memory_hits + self.disk.hits

    def describe(self) -> dict[str, object]:
        """Flat dictionary form (used by the CLI and the service stats)."""
        return {
            "memory_entries": self.memory_entries,
            "memory_max_entries": self.memory_max_entries,
            "memory_hits": self.memory_hits,
            "memory_misses": self.memory_misses,
            "memory_evictions": self.memory_evictions,
            "disk": self.disk.describe(),
        }


class TieredResultCache:
    """Memory-LRU tier over a persistent disk :class:`ResultCache`.

    Parameters
    ----------
    disk:
        The persistent tier — a :class:`ResultCache` instance or a
        directory path one is created from.
    memory_entries:
        Capacity of the in-memory LRU tier.
    """

    def __init__(
        self,
        disk: ResultCache | str | Path,
        *,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
    ):
        self.disk = disk if isinstance(disk, ResultCache) else ResultCache(disk)
        self.memory = MemoryCacheTier(memory_entries)

    # ------------------------------------------------------------------ #
    def lookup(self, key: str) -> dict[str, Any] | None:
        """Memory tier first; on a disk hit, promote the record to memory."""
        return self.lookup_with_source(key)[0]

    def lookup_with_source(self, key: str) -> tuple[dict[str, Any] | None, str]:
        """Like :meth:`lookup`, also reporting which tier answered.

        Returns ``(record, source)`` with ``source`` one of ``"memory"``,
        ``"disk"`` or ``"none"`` — the single implementation of the
        fallthrough-and-promote policy, shared with the service frontend's
        per-tier accounting.  With telemetry enabled every lookup ticks
        the per-tier ``cache.lookup`` counter (labelled by tier and
        outcome) and LRU evictions tick ``cache.evict``.
        """
        evictions_before = self.memory.evictions if _telemetry.is_enabled() else 0
        record = self.memory.lookup(key)
        if record is not None:
            if _telemetry.is_enabled():
                _telemetry.count("cache.lookup", tier="memory", outcome="hit")
            return record, "memory"
        record = self.disk.lookup(key)
        if _telemetry.is_enabled():
            _telemetry.count("cache.lookup", tier="memory", outcome="miss")
            _telemetry.count(
                "cache.lookup",
                tier="disk",
                outcome="hit" if record is not None else "miss",
            )
        if record is not None:
            self.memory.store(key, record)
            if _telemetry.is_enabled():
                evicted = self.memory.evictions - evictions_before
                if evicted:
                    _telemetry.count("cache.evict", evicted, tier="memory")
            return record, "disk"
        return None, "none"

    def store(self, key: str, record: dict[str, Any]) -> None:
        """Write through to both tiers."""
        evictions_before = self.memory.evictions if _telemetry.is_enabled() else 0
        self.disk.store(key, record)
        self.memory.store(key, record)
        if _telemetry.is_enabled():
            evicted = self.memory.evictions - evictions_before
            if evicted:
                _telemetry.count("cache.evict", evicted, tier="memory")

    def __contains__(self, key: str) -> bool:
        return key in self.memory or key in self.disk

    # ------------------------------------------------------------------ #
    def invalidate(
        self,
        *,
        algorithm: str | None = None,
        dataset_fingerprint: str | None = None,
    ) -> int:
        """Remove matching records from both tiers; return the disk count.

        The memory tier holds copies of disk records, which carry their
        ``algorithm`` and ``dataset_fingerprint`` fields, so only the
        memory records matching the filter are dropped; the rest stay warm.
        """
        removed = self.disk.invalidate(
            algorithm=algorithm, dataset_fingerprint=dataset_fingerprint
        )
        self.memory.invalidate_matching(
            algorithm=algorithm, dataset_fingerprint=dataset_fingerprint
        )
        return removed

    def clear(self) -> int:
        """Remove every record from both tiers; return the disk count."""
        removed = self.disk.clear()
        self.memory.clear()
        return removed

    def stats(self) -> TieredCacheStats:
        """Combined snapshot of both tiers."""
        return TieredCacheStats(
            memory_entries=len(self.memory),
            memory_max_entries=self.memory.max_entries,
            memory_hits=self.memory.hits,
            memory_misses=self.memory.misses,
            memory_evictions=self.memory.evictions,
            disk=self.disk.stats(),
        )

    def __repr__(self) -> str:
        return f"TieredResultCache(disk={self.disk!r}, memory={self.memory!r})"
