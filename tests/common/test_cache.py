"""The one bounded cache: insertion-order eviction, expiry, the sentinel,
the counts and the snapshot every owner reports."""

import pytest

from repro.common.cache import MISSING, BoundedCache


class TestEviction:
    def test_put_past_capacity_drops_the_oldest_insertion(self):
        cache = BoundedCache(2)
        assert cache.put("a", 1) is MISSING
        assert cache.put("b", 2) is MISSING
        assert cache.put("c", 3) == "a"
        assert len(cache) == 2
        assert cache.get("a") is MISSING
        assert (cache.get("b"), cache.get("c")) == (2, 3)

    def test_a_hit_does_not_refresh_the_position(self):
        cache = BoundedCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1
        assert cache.put("c", 3) == "a"

    def test_re_put_keeps_the_position_and_replaces_the_value(self):
        cache = BoundedCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.put("a", 10) is MISSING  # held: nothing evicted
        assert cache.get("a") == 10
        assert cache.put("c", 3) == "a"  # still the oldest insertion
        assert "a" not in cache and "b" in cache

    def test_pop_and_clear(self):
        cache = BoundedCache(4)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.pop("a")
        cache.pop("never-held")
        assert "a" not in cache and len(cache) == 1
        cache.clear()
        assert len(cache) == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            BoundedCache(0)


class TestExpiry:
    def test_now_equal_to_expires_at_misses(self):
        cache = BoundedCache(4)
        cache.put("k", "v", expires_at=100.0)
        assert cache.get("k", 99.999) == "v"
        assert cache.get("k", 100.0) is MISSING
        assert "k" not in cache  # the expired entry was dropped

    def test_an_entry_without_expiry_never_expires(self):
        cache = BoundedCache(4)
        cache.put("k", "v")
        assert cache.get("k", 1e18) == "v"
        assert cache.get("k") == "v"

    def test_re_put_carries_the_new_expiry(self):
        cache = BoundedCache(4)
        cache.put("k", "v", expires_at=10.0)
        cache.put("k", "w", expires_at=20.0)
        assert cache.get("k", 15.0) == "w"


class TestSentinel:
    def test_stored_none_is_a_hit_not_missing(self):
        cache = BoundedCache(4)
        cache.put("claim", None)
        assert cache.get("claim") is None
        assert cache.get("absent") is MISSING
        assert (cache.hits, cache.misses) == (1, 1)


class TestCounts:
    def test_hits_misses_and_snapshot(self):
        cache = BoundedCache(8)
        assert cache.snapshot() == {
            "entries": 0, "capacity": 8, "hits": 0, "misses": 0, "hit_ratio": 0.0,
        }
        cache.put("a", 1, expires_at=5.0)
        cache.get("a", 1.0)  # hit
        cache.get("a", 2.0)  # hit
        cache.get("b", 2.0)  # miss: absent
        cache.get("a", 5.0)  # miss: expired
        assert "a" not in cache
        assert cache.snapshot() == {
            "entries": 0, "capacity": 8, "hits": 2, "misses": 2, "hit_ratio": 0.5,
        }

    def test_membership_counts_nothing(self):
        cache = BoundedCache(2)
        cache.put("a", 1)
        assert "a" in cache and "b" not in cache
        assert (cache.hits, cache.misses) == (0, 0)
