"""The in-memory LRU tier and the tiered (memory + disk) result cache."""

from __future__ import annotations

import pytest

from repro.engine import MemoryCacheTier, ResultCache, TieredResultCache


class TestMemoryCacheTier:
    def test_lookup_miss_then_hit(self):
        tier = MemoryCacheTier(4)
        assert tier.lookup("a") is None
        tier.store("a", {"score": 1})
        assert tier.lookup("a") == {"score": 1}
        assert tier.hits == 1 and tier.misses == 1

    def test_lru_eviction_order(self):
        tier = MemoryCacheTier(2)
        tier.store("a", {"v": 1})
        tier.store("b", {"v": 2})
        tier.lookup("a")  # refresh a; b becomes LRU
        tier.store("c", {"v": 3})
        assert "b" not in tier
        assert "a" in tier and "c" in tier
        assert tier.evictions == 1

    def test_store_existing_key_refreshes_recency(self):
        tier = MemoryCacheTier(2)
        tier.store("a", {"v": 1})
        tier.store("b", {"v": 2})
        tier.store("a", {"v": 10})  # refresh + overwrite; b becomes LRU
        tier.store("c", {"v": 3})
        assert "b" not in tier
        assert tier.lookup("a") == {"v": 10}

    def test_invalidate_and_clear(self):
        tier = MemoryCacheTier(4)
        tier.store("a", {})
        assert tier.invalidate("a") is True
        assert tier.invalidate("a") is False
        tier.store("x", {})
        tier.store("y", {})
        assert tier.clear() == 2
        assert len(tier) == 0

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            MemoryCacheTier(0)


class TestTieredResultCache:
    def test_store_writes_through_both_tiers(self, tmp_path):
        cache = TieredResultCache(tmp_path / "cache")
        cache.store("k1", {"score": 5})
        assert cache.memory.lookup("k1") == {"score": 5}
        assert cache.disk.lookup("k1")["score"] == 5

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        disk = ResultCache(tmp_path / "cache")
        disk.store("k1", {"score": 7})
        cache = TieredResultCache(disk, memory_entries=8)
        assert "k1" not in cache.memory
        record = cache.lookup("k1")
        assert record["score"] == 7
        assert "k1" in cache.memory  # promoted
        # Second lookup is served by memory (disk counters unchanged).
        disk_hits = cache.disk.stats().hits
        assert cache.lookup("k1")["score"] == 7
        assert cache.disk.stats().hits == disk_hits

    def test_memory_tier_survives_independent_of_disk_eviction(self, tmp_path):
        cache = TieredResultCache(tmp_path / "cache", memory_entries=1)
        cache.store("a", {"v": 1})
        cache.store("b", {"v": 2})  # evicts a from memory, not from disk
        assert "a" not in cache.memory
        assert cache.lookup("a")["v"] == 1  # served by the disk tier

    def test_clear_and_invalidate_propagate(self, tmp_path):
        cache = TieredResultCache(tmp_path / "cache")
        cache.store("a", {"algorithm": "X"})
        cache.store("b", {"algorithm": "Y"})
        removed = cache.invalidate(algorithm="X")
        assert removed == 1
        # Only the matching record leaves memory; the other stays warm.
        assert "a" not in cache.memory
        assert "b" in cache.memory
        assert cache.lookup("b")["algorithm"] == "Y"
        assert cache.clear() >= 1
        assert cache.lookup("b") is None

    def test_contains_checks_both_tiers(self, tmp_path):
        disk = ResultCache(tmp_path / "cache")
        disk.store("only-disk", {})
        cache = TieredResultCache(disk)
        assert "only-disk" in cache
        cache.memory.store("only-memory", {})
        assert "only-memory" in cache
        assert "absent" not in cache

    def test_stats_combines_tiers(self, tmp_path):
        cache = TieredResultCache(tmp_path / "cache", memory_entries=16)
        cache.store("a", {})
        cache.lookup("a")
        cache.lookup("missing")
        stats = cache.stats()
        assert stats.memory_entries == 1
        assert stats.memory_hits == 1
        assert stats.disk.entries == 1
        assert stats.total_hits == stats.memory_hits + stats.disk.hits
        payload = stats.describe()
        assert payload["memory_max_entries"] == 16
        assert "disk" in payload
