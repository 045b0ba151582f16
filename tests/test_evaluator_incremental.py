"""Equivalence of the evaluator's incremental-SPF path and full recomputation.

The property the incremental engine guarantees: given a cached parent
evaluation, evaluating a weight delta through
``evaluate_high_neighbor`` / ``evaluate_low_neighbor`` /
``evaluate_str_neighbor`` produces *bit-identical* costs and loads to an
evaluator that recomputes every neighbor from scratch
(``incremental=False``).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro._reference import ScalarEvaluator
from repro.core.evaluator import (
    LOAD_MODE,
    SLA_MODE,
    DualTopologyEvaluator,
    IncrementalMismatchError,
)
from repro.eval.experiment import ExperimentConfig, build_network, build_traffic
from repro.routing.incremental import WeightDelta
from repro.routing.weights import random_weights

TOPOLOGIES = ("random", "isp", "powerlaw")
NUM_MOVES = 50


def _setup(topology: str, mode: str, seed: int = 5):
    config = ExperimentConfig(topology=topology, mode=mode)
    rng = random.Random(seed)
    net = build_network(topology, seed)
    high, low, _meta = build_traffic(net, config, rng)
    incremental = DualTopologyEvaluator(
        net, high, low, mode=mode, incremental=True, verify_incremental=True
    )
    full = DualTopologyEvaluator(net, high, low, mode=mode, incremental=False)
    return net, incremental, full, rng


def _random_single_deltas(base, num_links, rng, count):
    deltas = []
    while len(deltas) < count:
        link = rng.randrange(num_links)
        new_w = rng.randint(1, 30)
        if new_w != base[link]:
            deltas.append(WeightDelta.single(link, int(base[link]), new_w))
    return deltas


def _assert_same_evaluation(mode, incremental_eval, full_eval):
    assert incremental_eval.objective == full_eval.objective
    assert incremental_eval.phi_low == full_eval.phi_low
    np.testing.assert_array_equal(incremental_eval.high_loads, full_eval.high_loads)
    np.testing.assert_array_equal(incremental_eval.low_loads, full_eval.low_loads)
    np.testing.assert_array_equal(incremental_eval.utilization, full_eval.utilization)
    if mode == SLA_MODE:
        assert incremental_eval.penalty == full_eval.penalty
        assert incremental_eval.violations == full_eval.violations
        assert incremental_eval.pair_delays_ms == full_eval.pair_delays_ms


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_str_single_weight_moves_match_full(topology):
    net, incremental, full, rng = _setup(topology, LOAD_MODE)
    base = random_weights(net.num_links, rng)
    incremental.evaluate_str(base)
    for delta in _random_single_deltas(base, net.num_links, rng, NUM_MOVES):
        neighbor, via_delta = incremental.evaluate_str_neighbor(base, delta)
        from_scratch = full.evaluate_str(neighbor)
        _assert_same_evaluation(LOAD_MODE, via_delta, from_scratch)
    stats = incremental.cache_stats()
    assert stats["high_incremental"] >= NUM_MOVES
    assert stats["low_incremental"] >= NUM_MOVES


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_dual_topology_moves_match_full(topology):
    net, incremental, full, rng = _setup(topology, LOAD_MODE, seed=9)
    wh = random_weights(net.num_links, rng)
    wl = random_weights(net.num_links, rng)
    incremental.evaluate(wh, wl)
    for i, delta in enumerate(
        _random_single_deltas(wh, net.num_links, rng, 10)
        + _random_single_deltas(wl, net.num_links, rng, 10)
    ):
        if i < 10:
            neighbor, via_delta = incremental.evaluate_high_neighbor(wh, wl, delta)
            from_scratch = full.evaluate(neighbor, wl)
        else:
            neighbor, via_delta = incremental.evaluate_low_neighbor(wh, wl, delta)
            from_scratch = full.evaluate(wh, neighbor)
        _assert_same_evaluation(LOAD_MODE, via_delta, from_scratch)


def test_sla_mode_moves_match_full():
    net, incremental, full, rng = _setup("isp", SLA_MODE, seed=13)
    base = random_weights(net.num_links, rng)
    incremental.evaluate_str(base)
    for delta in _random_single_deltas(base, net.num_links, rng, 25):
        neighbor, via_delta = incremental.evaluate_str_neighbor(base, delta)
        from_scratch = full.evaluate_str(neighbor)
        _assert_same_evaluation(SLA_MODE, via_delta, from_scratch)


def test_two_link_moves_match_full():
    net, incremental, full, rng = _setup("powerlaw", LOAD_MODE, seed=21)
    base = random_weights(net.num_links, rng)
    incremental.evaluate_str(base)
    for _ in range(25):
        a, b = rng.sample(range(net.num_links), 2)
        candidate = base.copy()
        candidate[a] = rng.randint(1, 30)
        candidate[b] = rng.randint(1, 30)
        delta = WeightDelta.from_weights(base, candidate)
        if delta.num_changes == 0:
            continue
        neighbor, via_delta = incremental.evaluate_str_neighbor(base, delta)
        from_scratch = full.evaluate_str(neighbor)
        _assert_same_evaluation(LOAD_MODE, via_delta, from_scratch)


def test_incremental_disabled_never_derives():
    net, _inc, full, rng = _setup("isp", LOAD_MODE, seed=2)
    base = random_weights(net.num_links, rng)
    full.evaluate_str(base)
    for delta in _random_single_deltas(base, net.num_links, rng, 5):
        full.evaluate_str_neighbor(base, delta)
    stats = full.cache_stats()
    assert stats["high_incremental"] == 0
    assert stats["low_incremental"] == 0
    assert stats["high_full"] >= 1


def test_missing_parent_falls_back_to_full():
    net, incremental, _full, rng = _setup("isp", LOAD_MODE, seed=4)
    base = random_weights(net.num_links, rng)
    # No evaluation of `base` first: the parent layer is not cached, so the
    # delta hint cannot be honored and the layer is rebuilt from scratch.
    delta = _random_single_deltas(base, net.num_links, rng, 1)[0]
    _neighbor, evaluation = incremental.evaluate_str_neighbor(base, delta)
    assert evaluation is not None
    stats = incremental.cache_stats()
    assert stats["high_incremental"] == 0
    assert stats["high_full"] == 1


def test_search_results_identical_with_and_without_incremental():
    from repro.api import Session, optimize
    from repro.core.search_params import SearchParams

    params = SearchParams(
        iterations_high=6, iterations_low=4, iterations_refine=2, neighborhood_size=3
    )
    config = ExperimentConfig(topology="isp", mode=LOAD_MODE)
    rng = random.Random(6)
    net = build_network("isp", 6)
    high, low, _meta = build_traffic(net, config, rng)
    results = []
    for incremental in (True, False):
        evaluator = DualTopologyEvaluator(net, high, low, incremental=incremental)
        result = optimize(
            Session.from_evaluator(evaluator), "str", params, rng=random.Random(42)
        )
        results.append(result)
    assert results[0].objective == results[1].objective
    np.testing.assert_array_equal(results[0].weights, results[1].weights)


def test_mismatched_hint_rejected():
    net, incremental, _full, rng = _setup("isp", LOAD_MODE, seed=3)
    base = random_weights(net.num_links, rng)
    incremental.evaluate_str(base)
    delta = _random_single_deltas(base, net.num_links, rng, 1)[0]
    other = delta.apply(base)
    other[(delta.links()[0] + 1) % net.num_links] += 1  # not delta.apply(base)
    with pytest.raises(ValueError, match="hint mismatch"):
        incremental.evaluate(
            other, other, high_base=base, high_delta=delta, low_base=base, low_delta=delta
        )


def _reused_row_scenario(seed):
    """A cached parent layer plus a delta that leaves some row reused."""
    from repro.routing.incremental import affected_destinations
    from repro.routing.weights import weights_key

    net, incremental, _full, rng = _setup("isp", LOAD_MODE, seed=seed)
    base = random_weights(net.num_links, rng)
    incremental.evaluate_str(base)
    key = weights_key(np.asarray(base, dtype=np.int64))
    layer = incremental._high_cache.peek(key)
    active = np.flatnonzero(incremental.high_traffic.demands.sum(axis=0) > 0)
    # Find a delta that leaves at least one active destination's row reused,
    # so corrupting the cached rows must surface in the derived layer.
    for candidate in _random_single_deltas(base, net.num_links, rng, 50):
        affected = affected_destinations(net, layer.routing.distance_matrix, candidate)
        reused = np.setdiff1d(active, affected)
        if reused.size > 0:
            return incremental, base, layer, active, reused, candidate
    raise AssertionError("no delta with a reused row found")


def test_verify_flag_detects_corrupted_parent():
    incremental, base, layer, _active, _reused, delta = _reused_row_scenario(8)
    layer.dest_rows = layer.dest_rows * 1.5  # corrupt the cached rows
    with pytest.raises(IncrementalMismatchError):
        incremental.evaluate_str_neighbor(base, delta)


def test_verify_catches_sub_tolerance_row_poison():
    """A poisoned row too small for the loads tolerance still gets caught.

    The old verifier only compared summed loads with ``allclose``; a
    per-row perturbation below its tolerance survived verification and
    resurfaced later through row reuse.  The exact per-destination-row
    comparison closes that blind spot.
    """
    incremental, base, layer, active, reused, delta = _reused_row_scenario(8)
    j = list(int(t) for t in active).index(int(reused[0]))
    poison = layer.dest_rows.copy()
    # 1e-10 is inside the loads allclose band (atol 1e-9): the summed-load
    # check alone would pass.
    poison[j][poison[j] > 0] += 1e-10
    layer.dest_rows = poison
    with pytest.raises(
        IncrementalMismatchError, match="per-destination rows differ"
    ):
        incremental.evaluate_str_neighbor(base, delta)


# ----------------------------------------------------------------------
# Vectorized numeric core vs scalar reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("mode", (LOAD_MODE, SLA_MODE))
def test_vectorized_evaluator_bitwise_equals_scalar(topology, mode):
    config = ExperimentConfig(topology=topology, mode=mode)
    rng = random.Random(31)
    net = build_network(topology, 31)
    high, low, _meta = build_traffic(net, config, rng)
    vec = DualTopologyEvaluator(net, high, low, mode=mode)
    ref = ScalarEvaluator(net, high, low, mode=mode)
    for _ in range(3):
        wh = random_weights(net.num_links, rng)
        wl = random_weights(net.num_links, rng)
        _assert_same_evaluation(mode, vec.evaluate(wh, wl), ref.evaluate(wh, wl))
        _assert_same_evaluation(mode, vec.evaluate_str(wh), ref.evaluate_str(wh))


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_vectorized_incremental_matches_scalar_full(topology):
    """SoA kernels riding the derived path equal a scalar from-scratch build."""
    config = ExperimentConfig(topology=topology, mode=LOAD_MODE)
    rng = random.Random(37)
    net = build_network(topology, 37)
    high, low, _meta = build_traffic(net, config, rng)
    vec_inc = DualTopologyEvaluator(
        net, high, low, incremental=True, verify_incremental=True
    )
    ref_full = ScalarEvaluator(net, high, low, incremental=False)
    base = random_weights(net.num_links, rng)
    vec_inc.evaluate_str(base)
    for delta in _random_single_deltas(base, net.num_links, rng, 15):
        neighbor, via_delta = vec_inc.evaluate_str_neighbor(base, delta)
        _assert_same_evaluation(LOAD_MODE, via_delta, ref_full.evaluate_str(neighbor))
    assert vec_inc.cache_stats()["high_incremental"] >= 1


def test_vectorized_sla_mode_matches_scalar_full():
    config = ExperimentConfig(topology="isp", mode=SLA_MODE)
    rng = random.Random(41)
    net = build_network("isp", 41)
    high, low, _meta = build_traffic(net, config, rng)
    vec_inc = DualTopologyEvaluator(
        net, high, low, mode=SLA_MODE, incremental=True,
        verify_incremental=True,
    )
    ref_full = ScalarEvaluator(
        net, high, low, mode=SLA_MODE, incremental=False
    )
    base = random_weights(net.num_links, rng)
    vec_inc.evaluate_str(base)
    for delta in _random_single_deltas(base, net.num_links, rng, 10):
        neighbor, via_delta = vec_inc.evaluate_str_neighbor(base, delta)
        _assert_same_evaluation(SLA_MODE, via_delta, ref_full.evaluate_str(neighbor))


# ----------------------------------------------------------------------
# Weight-key validation (truncation regression)
# ----------------------------------------------------------------------
def test_fractional_weights_rejected_on_every_entry_point():
    """Fractional weights raise instead of being truncated into a cache key.

    Regression: a bare ``int64`` cast keyed ``w + 0.5`` as ``floor(w)``,
    so a fractional vector silently resolved to the cached result of a
    *different* weight setting.  Validation must run before keying, so
    the cached entry for the truncated integer vector is never touched.
    """
    net, _inc, full, rng = _setup("isp", LOAD_MODE, seed=7)
    w = random_weights(net.num_links, rng)
    full.evaluate_str(w)  # cache the integer vector the truncation aliased
    before = full.cache_stats()
    frac = np.asarray(w, dtype=float)
    frac[3] += 0.25  # truncates back to `w` under a bare int64 cast
    with pytest.raises(ValueError, match="integer"):
        full.evaluate(frac, frac)
    with pytest.raises(ValueError, match="integer"):
        full.evaluate(w, frac)
    with pytest.raises(ValueError, match="integer"):
        full.high_routing(frac)
    with pytest.raises(ValueError, match="integer"):
        full.low_routing(frac)
    delta = _random_single_deltas(w, net.num_links, rng, 1)[0]
    with pytest.raises(ValueError, match="integer"):
        full.evaluate(delta.apply(w), w, high_base=frac, high_delta=delta)
    with pytest.raises(ValueError, match="integer"):
        full.evaluate(w, delta.apply(w), low_base=frac, low_delta=delta)
    after = full.cache_stats()
    # The truncated key never resolved to the cached integer result.
    assert after["full_hits"] == before["full_hits"]
    assert after["high_hits"] == before["high_hits"]
    assert after["low_hits"] == before["low_hits"]
