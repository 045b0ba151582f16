"""Warm-session pool: canonical keys, LRU eviction, deterministic rebuild."""

from __future__ import annotations

import pytest

from repro.serve.cache import PlanCache
from repro.serve.encoding import canonical_body, whatif_payload
from repro.serve.pool import SessionPool, SessionSpec

ISP = dict(topology="isp", utilization=0.5)


# ----------------------------------------------------------------------
# SessionSpec canonicalization
# ----------------------------------------------------------------------
def test_key_is_deterministic_and_field_sensitive():
    a = SessionSpec(**ISP)
    b = SessionSpec(**ISP)
    assert a == b and a.key() == b.key()
    assert SessionSpec(topology="isp", utilization=0.6).key() != a.key()
    assert SessionSpec(**ISP, seed=2).key() != a.key()


def test_weight_spellings_share_one_key():
    """A list, a high-only dict, and int/float spellings are one baseline."""
    as_list = SessionSpec(**ISP, weights=[1] * 70)
    as_dict = SessionSpec(**ISP, weights={"high": [1] * 70})
    as_pair = SessionSpec(**ISP, weights={"high": [1] * 70, "low": [1] * 70})
    assert as_list.key() == as_dict.key() == as_pair.key()
    assert as_list.key() != SessionSpec(**ISP).key()  # symbolic "unit" differs


def test_fractional_weights_are_rejected_not_truncated():
    """2.5 must not share the key (and the answers) of weight 2."""
    with pytest.raises(ValueError, match="integers"):
        SessionSpec(**ISP, weights=[2.5] * 70)
    with pytest.raises(ValueError, match="integers"):
        SessionSpec(**ISP, weights={"high": [2] * 70, "low": [2.5] * 70})


def test_from_jsonable_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown session spec fields"):
        SessionSpec.from_jsonable({"topology": "isp", "bogus": 1})
    with pytest.raises(ValueError, match="must be an object"):
        SessionSpec.from_jsonable([1, 2])
    with pytest.raises(ValueError, match="unknown weight policy"):
        SessionSpec(**ISP, weights="hopcount")
    with pytest.raises(ValueError, match="unknown topology"):
        SessionSpec(topology="mesh")


def test_jsonable_round_trip():
    spec = SessionSpec(**ISP, weights={"high": [2] * 70, "low": [3] * 70})
    assert SessionSpec.from_jsonable(spec.to_jsonable()) == spec


# ----------------------------------------------------------------------
# Pool behavior
# ----------------------------------------------------------------------
def test_hit_returns_the_same_warm_session():
    pool = SessionPool(capacity=2)
    key1, s1 = pool.get(SessionSpec(**ISP))
    key2, s2 = pool.get(SessionSpec(**ISP))
    assert key1 == key2 and s1 is s2
    assert pool.metrics()["hits"] == 1
    assert pool.metrics()["builds"] == 1


def test_lru_eviction_and_rebuild_on_miss():
    pool = SessionPool(capacity=1)
    spec_a = SessionSpec(**ISP)
    spec_b = SessionSpec(**ISP, seed=2)
    _, a1 = pool.get(spec_a)
    pool.get(spec_b)  # evicts a
    assert pool.metrics()["evictions"] == 1
    _, a2 = pool.get(spec_a)  # rebuilt, not resurrected
    assert a2 is not a1
    assert pool.metrics()["builds"] == 3
    assert len(pool) == 1


def test_rebuild_is_deterministic_bit_for_bit():
    """Evict-and-rebuild must never change an answer (the pool's license
    to evict freely)."""
    spec = SessionSpec(**ISP)
    pool = SessionPool(capacity=1)
    _, before = pool.get(spec)
    answer_before = canonical_body(whatif_payload(before.under_scenario("node:3")))
    pool.get(SessionSpec(**ISP, seed=2))  # evict
    _, rebuilt = pool.get(spec)
    assert rebuilt is not before
    answer_after = canonical_body(whatif_payload(rebuilt.under_scenario("node:3")))
    assert answer_before == answer_after


def test_built_sessions_arrive_warm():
    _, session = SessionPool().get(SessionSpec(**ISP))
    # prepare() ran: baseline evaluation and sweep engine exist.
    assert session._sweep_engine_cache is not None
    assert session.evaluate() is session.evaluate()


def test_capacity_validation():
    with pytest.raises(ValueError):
        SessionPool(capacity=0)
    with pytest.raises(ValueError):
        PlanCache(capacity=0)
