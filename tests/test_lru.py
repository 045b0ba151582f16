"""The one bounded memo: eviction order, recency, counters."""

from __future__ import annotations

import random

import pytest

from repro.eval.experiment import ExperimentConfig, build_network, build_traffic
from repro.lru import LruCache
from repro.scenarios import LinkFailure


def test_eviction_order_is_least_recently_used_first():
    cache = LruCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("c", 3)
    assert "a" not in cache
    assert ("b" in cache, "c" in cache, len(cache)) == (True, True, 2)


@pytest.mark.parametrize("touch", ["get", "peek"])
def test_get_and_peek_both_refresh_recency(touch):
    cache = LruCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert getattr(cache, touch)("a") == 1
    cache.put("c", 3)
    assert "a" in cache
    assert "b" not in cache


def test_put_refreshes_an_existing_key():
    cache = LruCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.put("a", 10) == 0
    cache.put("c", 3)
    assert cache.peek("a") == 10
    assert "b" not in cache


def test_get_counts_and_peek_does_not():
    cache = LruCache(4)
    cache.put("a", 1)
    assert cache.peek("a") == 1
    assert cache.peek("missing") is None
    assert (cache.hits, cache.misses) == (0, 0)
    assert cache.get("a") == 1
    assert cache.get("missing") is None
    assert (cache.hits, cache.misses) == (1, 1)


def test_put_returns_how_many_entries_it_evicted():
    cache = LruCache(3)
    assert [cache.put(key, key) for key in "abc"] == [0, 0, 0]
    assert cache.put("d", "d") == 1
    cache["e"] = "e"  # item assignment is put
    assert len(cache) == 3
    assert "b" not in cache


def test_falsy_values_are_entries():
    cache = LruCache(1)
    cache.put("empty", {})
    assert cache.get("empty") == {}
    assert cache.hits == 1


@pytest.mark.parametrize("capacity", [0, -3])
def test_capacity_below_one_is_rejected(capacity):
    with pytest.raises(ValueError, match="capacity"):
        LruCache(capacity)


@pytest.mark.parametrize("memo", [dict, lambda: LruCache(8)], ids=["dict", "lru"])
def test_lower_shares_projections_through_a_dict_or_an_lru(memo):
    """``Scenario.lower(projections=...)`` takes either memo type."""
    config = ExperimentConfig(topology="isp")
    net = build_network("isp", 3)
    high, low, _meta = build_traffic(net, config, random.Random(3))
    projections = memo()
    scenario = LinkFailure.single(*net.duplex_pairs()[0])
    first = scenario.lower(net, high, low, projections=projections)
    second = scenario.lower(net, high, low, projections=projections)
    assert second.projection is first.projection
    assert len(projections) == 1
    assert first.projection.failed_links in projections
