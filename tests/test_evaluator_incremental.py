"""Equivalence of the evaluator's incremental-SPF path and full recomputation.

The property the incremental engine guarantees: given a cached parent
evaluation, evaluating a move ``(high_delta, low_delta)`` through
``evaluate_moves`` produces *bit-identical* costs and loads to an
evaluator that recomputes every neighbor from scratch
(:class:`repro._reference.RebuildEvaluator`).
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro._reference import RebuildEvaluator, ScalarEvaluator
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
    incremental = DualTopologyEvaluator(net, high, low, mode=mode, verify_incremental=True)
    full = RebuildEvaluator(net, high, low, mode=mode)
    return net, incremental, full, rng


def _random_single_deltas(base, num_links, rng, count):
    deltas = []
    while len(deltas) < count:
        link = rng.randrange(num_links)
        new_w = rng.randint(1, 30)
        if new_w != base[link]:
            deltas.append(WeightDelta.single(link, int(base[link]), new_w))
    return deltas


def _str_move(evaluator, base, delta):
    """The STR move ``(delta, delta)`` from ``base``: its child vector and evaluation."""
    ((child, _low),), (evaluation,) = evaluator.evaluate_moves(base, base, [(delta, delta)])
    return child, evaluation


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
        neighbor, via_delta = _str_move(incremental, base, delta)
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
        move = (delta, None) if i < 10 else (None, delta)
        (child,), (via_delta,) = incremental.evaluate_moves(wh, wl, [move])
        _assert_same_evaluation(LOAD_MODE, via_delta, full.evaluate(*child))


def test_sla_mode_moves_match_full():
    net, incremental, full, rng = _setup("isp", SLA_MODE, seed=13)
    base = random_weights(net.num_links, rng)
    incremental.evaluate_str(base)
    for delta in _random_single_deltas(base, net.num_links, rng, 25):
        neighbor, via_delta = _str_move(incremental, base, delta)
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
        neighbor, via_delta = _str_move(incremental, base, delta)
        from_scratch = full.evaluate_str(neighbor)
        _assert_same_evaluation(LOAD_MODE, via_delta, from_scratch)


def test_rebuild_reference_never_derives():
    """Every layer the reference misses is built from scratch, even with
    its parent cached."""
    net, _inc, full, rng = _setup("isp", LOAD_MODE, seed=2)
    base = random_weights(net.num_links, rng)
    full.evaluate_str(base)
    for delta in _random_single_deltas(base, net.num_links, rng, 5):
        _str_move(full, base, delta)
    stats = full.cache_stats()
    assert stats["high_incremental"] == 0
    assert stats["low_incremental"] == 0
    assert stats["high_full"] == stats["high_misses"] > 1
    assert stats["low_full"] == stats["low_misses"] > 1


def test_missing_parent_falls_back_to_full():
    net, incremental, _full, rng = _setup("isp", LOAD_MODE, seed=4)
    base = random_weights(net.num_links, rng)
    # No evaluation of `base` first: the parent layer is not cached, so the
    # delta hint cannot be honored and the layer is rebuilt from scratch.
    delta = _random_single_deltas(base, net.num_links, rng, 1)[0]
    _neighbor, evaluation = _str_move(incremental, base, delta)
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
    for evaluator_class in (DualTopologyEvaluator, RebuildEvaluator):
        evaluator = evaluator_class(net, high, low)
        result = optimize(
            Session.from_evaluator(evaluator), "str", params, rng=random.Random(42)
        )
        results.append(result)
    assert results[0].objective == results[1].objective
    np.testing.assert_array_equal(results[0].weights, results[1].weights)


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
    """A mismatch leaves none of the failed batch's entries cached, so the
    same call raises again instead of returning the unverified result."""
    incremental, base, layer, _active, _reused, delta = _reused_row_scenario(8)
    layer.dest_rows = layer.dest_rows * 1.5  # corrupt the cached rows
    keys = _keys(incremental)
    for _ in range(2):
        with pytest.raises(IncrementalMismatchError):
            _str_move(incremental, base, delta)
        assert _keys(incremental) == keys
        with pytest.raises(IncrementalMismatchError):
            incremental.evaluate_moves(
                base, base, [(WeightDelta(()),) * 2, (delta, delta), (delta, delta)]
            )
        assert _keys(incremental) == keys


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
        _str_move(incremental, base, delta)


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
    vec_inc = DualTopologyEvaluator(net, high, low, verify_incremental=True)
    ref_full = ScalarEvaluator(net, high, low)
    base = random_weights(net.num_links, rng)
    vec_inc.evaluate_str(base)
    for delta in _random_single_deltas(base, net.num_links, rng, 15):
        neighbor, via_delta = _str_move(vec_inc, base, delta)
        _assert_same_evaluation(LOAD_MODE, via_delta, ref_full.evaluate_str(neighbor))
    assert vec_inc.cache_stats()["high_incremental"] >= 1


def test_vectorized_sla_mode_matches_scalar_full():
    config = ExperimentConfig(topology="isp", mode=SLA_MODE)
    rng = random.Random(41)
    net = build_network("isp", 41)
    high, low, _meta = build_traffic(net, config, rng)
    vec_inc = DualTopologyEvaluator(net, high, low, mode=SLA_MODE, verify_incremental=True)
    ref_full = ScalarEvaluator(net, high, low, mode=SLA_MODE)
    base = random_weights(net.num_links, rng)
    vec_inc.evaluate_str(base)
    for delta in _random_single_deltas(base, net.num_links, rng, 10):
        neighbor, via_delta = _str_move(vec_inc, base, delta)
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
        full.evaluate_moves(frac, w, [(delta, None)])
    with pytest.raises(ValueError, match="integer"):
        full.evaluate_moves(w, frac, [(None, delta)])
    after = full.cache_stats()
    # The truncated key never resolved to the cached integer result.
    assert after["full_hits"] == before["full_hits"]
    assert after["high_hits"] == before["high_hits"]
    assert after["low_hits"] == before["low_hits"]


# ----------------------------------------------------------------------
# One search step in one batch call == one call per neighbor
# ----------------------------------------------------------------------
def _assert_fields_equal(a, b):
    """Every field of two evaluations, exactly (arrays by dtype and bits)."""
    assert type(a) is type(b)
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), field.name
        else:
            assert x == y, field.name


def _obs_counts(evaluator):
    """The evaluator's counters and histogram counts, plus the derivation
    histograms of the incremental-SPF path (kernel histograms are left
    out: a batch runs fewer kernel calls by design)."""
    from repro.routing import incremental

    counters = {
        "full_hit": evaluator._obs_full_hit,
        "full_miss": evaluator._obs_full_miss,
        "memo_hit": evaluator._obs_memo_hit,
        "memo_miss": evaluator._obs_memo_miss,
        **{f"build_{k[0]}_{k[1]}": c for k, c in evaluator._obs_builds.items()},
    }
    histograms = {
        "evaluate_seconds": evaluator._obs_eval_seconds,
        **{f"layer_{k}": h for k, h in evaluator._obs_layer_seconds.items()},
        "derive_seconds": incremental._OBS_DERIVE_SECONDS,
        "affected": incremental._OBS_AFFECTED,
    }
    return {
        **{name: c.value for name, c in counters.items()},
        **{name: h.sample()["count"] for name, h in histograms.items()},
    }


def _state(evaluator):
    """Everything a step may change: counts, stats and every LRU's key order."""
    return (
        evaluator.evaluations,
        evaluator.cache_stats(),
        [
            list(cache._store)
            for cache in (
                evaluator._full_cache,
                evaluator._high_cache,
                evaluator._low_cache,
                evaluator._routing_memo,
            )
        ],
    )


def _moves(method, deltas):
    """A FindH (``"high"``), FindL (``"low"``) or STR (``"str"``) step's moves."""
    if method == "high":
        return [(delta, None) for delta in deltas]
    if method == "low":
        return [(None, delta) for delta in deltas]
    return [(delta, delta) for delta in deltas]


def _step(evaluator, wh, wl, moves, batched):
    """A step's children and evaluations: one ``evaluate_moves`` call, or one per move."""
    if batched:
        return evaluator.evaluate_moves(wh, wl, moves)
    calls = [evaluator.evaluate_moves(wh, wl, [move]) for move in moves]
    return [c for children, _ in calls for c in children], [e for _, es in calls for e in es]


def _step_deltas(base, num_links, rng):
    """A step with repeated deltas, an empty delta and a two-link move."""
    singles = _random_single_deltas(base, num_links, rng, 4)
    a, b = rng.sample(range(num_links), 2)
    two = base.copy()
    two[a] = 31 - two[a]
    two[b] = 31 - two[b]
    pair = WeightDelta.from_weights(base, two)
    return [singles[0], pair, WeightDelta(()), singles[1], singles[0], singles[2], pair, singles[3]]


def _evaluator(topology, mode, options, evaluator_class=DualTopologyEvaluator):
    config = ExperimentConfig(topology=topology, mode=mode)
    rng = random.Random(17)
    net = build_network(topology, 17)
    high, low, _meta = build_traffic(net, config, rng)
    return evaluator_class(net, high, low, mode=mode, **options), rng


EVALUATOR_OPTIONS = (
    (DualTopologyEvaluator, {}),
    (RebuildEvaluator, {}),
    (DualTopologyEvaluator, {"verify_incremental": True}),
)


@pytest.mark.parametrize(
    "evaluator_class, options", EVALUATOR_OPTIONS, ids=("default", "full", "verify")
)
@pytest.mark.parametrize("method", ("high", "low", "str"))
@pytest.mark.parametrize("mode", (LOAD_MODE, SLA_MODE))
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_batched_step_equals_one_call_per_neighbor(
    topology, mode, method, evaluator_class, options
):
    """Two steps (the second from a neighbor of the first), each once in one
    ``evaluate_moves`` call and once as one call per move, on twin
    evaluators: equal children, evaluation fields, counters, cache stats and
    LRU orders."""
    runs = []
    for batched in (True, False):
        evaluator, rng = _evaluator(topology, mode, options, evaluator_class)
        net = evaluator.network
        wh = random_weights(net.num_links, rng)
        wl = random_weights(net.num_links, rng)
        if method == "str":
            wl = wh
        before = _obs_counts(evaluator)
        evaluator.evaluate(wh, wl)
        out = []
        for step in range(2):
            base = wl if method == "low" else wh
            deltas = _step_deltas(base, net.num_links, rng)
            stats = evaluator.cache_stats()
            children, evaluations = _step(
                evaluator, wh, wl, _moves(method, deltas), batched
            )
            if step == 0:
                # The empty delta (the cached base) and the two repeats hit.
                after = evaluator.cache_stats()
                assert after["full_hits"] - stats["full_hits"] == 3
                assert after["full_misses"] - stats["full_misses"] == 5
            out.append((children, evaluations))
            wh, wl = children[1]
        after = _obs_counts(evaluator)
        obs_delta = {k: after[k] - before[k] for k in after}
        runs.append((out, _state(evaluator), obs_delta))
    (batch_out, batch_state, batch_obs), (seq_out, seq_state, seq_obs) = runs
    assert batch_state == seq_state
    assert batch_obs == seq_obs
    reference = DualTopologyEvaluator(
        evaluator.network, evaluator.high_traffic, evaluator.low_traffic, mode=mode
    )
    for (bc, be), (sc, se) in zip(batch_out, seq_out):
        assert len(bc) == len(sc) == len(be) == len(se) == 8
        for b_child, s_child, b_eval, s_eval in zip(bc, sc, be, se):
            np.testing.assert_array_equal(b_child, s_child)
            _assert_fields_equal(b_eval, s_eval)
            # ... and both equal a from-scratch evaluation.
            _assert_fields_equal(b_eval, reference.evaluate(*b_child))


@pytest.mark.parametrize("mode", (LOAD_MODE, SLA_MODE))
def test_batch_from_uncached_base_and_single_delta(mode):
    """Without a cached base, an empty delta builds the base layer and later
    siblings derive from that shell, as one call per move does; a one-move
    call is its own sequence."""
    for deltas_of in (
        lambda base, rng, n: [WeightDelta(())] + _random_single_deltas(base, n, rng, 3),
        lambda base, rng, n: _random_single_deltas(base, n, rng, 1),
    ):
        runs = []
        for batched in (True, False):
            evaluator, rng = _evaluator("isp", mode, {"verify_incremental": True})
            net = evaluator.network
            wh = random_weights(net.num_links, rng)
            deltas = deltas_of(wh, rng, net.num_links)
            out = _step(evaluator, wh, wh, _moves("str", deltas), batched)
            runs.append((out, _state(evaluator)))
        (batch_out, batch_state), (seq_out, seq_state) = runs
        assert batch_state == seq_state
        for b_eval, s_eval in zip(batch_out[1], seq_out[1]):
            _assert_fields_equal(b_eval, s_eval)


def _mixed_moves(wh, wl, num_links, rng):
    """Every kind of move from ``(wh, wl)``: no move, high-only, low-only, one
    link changed in both classes (``what_if(..., "both")``), empty deltas and
    repeats; from an STR setting also one delta on both classes and two
    different deltas."""
    (dh,) = _random_single_deltas(wh, num_links, rng, 1)
    (dl,) = _random_single_deltas(wl, num_links, rng, 1)
    link = rng.randrange(num_links)
    new_w = rng.choice([w for w in range(1, 31) if w not in (wh[link], wl[link])])
    both = (
        WeightDelta.single(link, int(wh[link]), new_w),
        WeightDelta.single(link, int(wl[link]), new_w),
    )
    empty = WeightDelta(())
    moves = [(None, None), (dh, None), (None, dl), both, (empty, None), (None, empty),
             (empty, empty), (dh, None), both]
    if np.array_equal(wh, wl):
        moves += [(dh, dh), (dh, dl), (dl, dl), (dh, dh)]
    return moves


@pytest.mark.parametrize(
    "evaluator_class, options", EVALUATOR_OPTIONS[1:], ids=("full", "verify")
)
@pytest.mark.parametrize("mode", (LOAD_MODE, SLA_MODE))
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_mixed_moves_equal_one_call_per_move(topology, mode, evaluator_class, options):
    """One ``evaluate_moves`` call over every kind of move equals one call per
    move, from a cached dual setting and then from the STR setting of its low
    vector: equal children, evaluation fields, counters, cache stats and LRU
    orders, and each evaluation equals a from-scratch one."""
    runs = []
    for batched in (True, False):
        evaluator, rng = _evaluator(topology, mode, options, evaluator_class)
        n = evaluator.network.num_links
        wh, wl = random_weights(n, rng), random_weights(n, rng)
        before = _obs_counts(evaluator)
        evaluator.evaluate(wh, wl)
        out = [
            _step(evaluator, *base, _mixed_moves(*base, n, rng), batched)
            for base in ((wh, wl), (wl, wl))
        ]
        after = _obs_counts(evaluator)
        runs.append((out, _state(evaluator), {k: after[k] - before[k] for k in after}))
    (batch_out, batch_state, batch_obs), (seq_out, seq_state, seq_obs) = runs
    assert batch_state == seq_state
    assert batch_obs == seq_obs
    reference = DualTopologyEvaluator(
        evaluator.network, evaluator.high_traffic, evaluator.low_traffic, mode=mode
    )
    for (bc, be), (sc, se), size in zip(batch_out, seq_out, (9, 13)):
        assert len(bc) == len(sc) == len(be) == len(se) == size
        for b_child, s_child, b_eval, s_eval in zip(bc, sc, be, se):
            np.testing.assert_array_equal(b_child, s_child)
            _assert_fields_equal(b_eval, s_eval)
            _assert_fields_equal(b_eval, reference.evaluate(*b_child))


@pytest.mark.parametrize("mode", (LOAD_MODE, SLA_MODE))
def test_derivation_on_a_memo_hit_from_another_parent(mode):
    """A child whose routing the low class already put in the shared memo,
    built with no parent, is derived from the move's own parent: the affected
    rows are worked out from that parent, and the answer equals a fresh
    evaluator's."""
    evaluator, rng = _evaluator("isp", mode, {})
    n = evaluator.network.num_links
    w1, wl = random_weights(n, rng), random_weights(n, rng)
    (d,) = _random_single_deltas(w1, n, rng, 1)
    child = d.apply(w1)
    evaluator.evaluate(w1, wl)
    evaluator.evaluate(wl, child)
    _, (evaluation,) = evaluator.evaluate_moves(w1, wl, [(d, None)])
    assert evaluator.cache_stats()["high_incremental"] == 1
    fresh, _rng = _evaluator("isp", mode, {})
    _assert_fields_equal(evaluation, fresh.evaluate(child, wl))


@pytest.mark.parametrize("method", ("high", "low", "str"))
def test_invalid_delta_leaves_evaluator_unchanged(method):
    """A fractional base, or a delta leaving the weight range or not fitting
    its base, raises ValueError before any cache is touched, even after
    valid deltas."""
    evaluator, rng = _evaluator("isp", LOAD_MODE, {})
    net = evaluator.network
    wh = random_weights(net.num_links, rng)
    wl = random_weights(net.num_links, rng)
    evaluator.evaluate(wh, wl)
    base = wl if method == "low" else wh
    good = _random_single_deltas(base, net.num_links, rng, 2)
    too_high = WeightDelta.single(0, int(base[0]), 31)
    wrong_base = WeightDelta.single(1, int(base[1]) % 30 + 1, int(base[1]))
    bases = (wh, wh) if method == "str" else (wh, wl)
    frac = np.asarray(base, dtype=float)
    frac[2] += 0.5
    bad_bases = {"high": (frac, wl), "low": (wh, frac), "str": (frac, frac)}[method]
    before = (_state(evaluator), _obs_counts(evaluator))
    for bad in (too_high, wrong_base):
        with pytest.raises(ValueError, match="link"):
            _step(evaluator, *bases, _moves(method, good + [bad]), batched=True)
        assert (_state(evaluator), _obs_counts(evaluator)) == before
    with pytest.raises(ValueError, match="integer"):
        _step(evaluator, *bad_bases, _moves(method, good), batched=True)
    assert (_state(evaluator), _obs_counts(evaluator)) == before


def test_verify_compares_loads_exactly(monkeypatch):
    """A rebuilt layer one ulp away from the derived one is a mismatch: the
    check is exact, not ``allclose``."""
    net, incremental, _full, rng = _setup("isp", LOAD_MODE, seed=8)
    base = random_weights(net.num_links, rng)
    incremental.evaluate_str(base)
    rebuild = incremental._rebuild

    def nudged(which, weights):
        layer = rebuild(which, weights)
        layer.loads = np.nextafter(layer.loads, np.inf)
        return layer

    monkeypatch.setattr(incremental, "_rebuild", nudged)
    delta = _random_single_deltas(base, net.num_links, rng, 1)[0]
    with pytest.raises(IncrementalMismatchError, match="link loads differ"):
        _str_move(incremental, base, delta)


@pytest.mark.parametrize("mode", (LOAD_MODE, SLA_MODE))
def test_unreachable_demand_raises_before_caching(mode):
    """A demanded pair with no path raises ``RoutingError`` while its layer
    is looked up, before a shell is cached: the same call raises again
    instead of reading an unfilled layer."""
    from repro.routing.spf import RoutingError

    evaluator, rng = _evaluator("isp", mode, {})
    net = evaluator.network
    sources = net.link_sources()
    keep = (sources != 0) & (net.link_destinations() != 0)  # isolate node 0
    cut = net.sub_network(keep)
    broken = DualTopologyEvaluator(
        cut, evaluator.high_traffic, evaluator.low_traffic, mode=mode
    )
    w = random_weights(cut.num_links, rng)
    deltas = _random_single_deltas(w, cut.num_links, rng, 3)
    for _ in range(2):
        with pytest.raises(RoutingError, match="unreachable"):
            broken.evaluate_moves(w, w, _moves("str", deltas))
        with pytest.raises(RoutingError, match="unreachable"):
            broken.evaluate_str(w)
    assert len(broken._full_cache) == 0


def _keys(evaluator):
    """Every evaluator LRU's keys, in order."""
    return _state(evaluator)[2]


@pytest.mark.parametrize("mode", (LOAD_MODE, SLA_MODE))
def test_interrupted_batch_takes_back_its_entries(mode, monkeypatch):
    """An exception out of the kernel pass (here an interrupt) leaves no
    shell or placeholder cached; the next call evaluates correctly."""
    evaluator, rng = _evaluator("isp", mode, {})
    net = evaluator.network
    wh = random_weights(net.num_links, rng)
    wl = random_weights(net.num_links, rng)
    evaluator.evaluate(wh, wl)
    deltas = _random_single_deltas(wh, net.num_links, rng, 3)
    keys = _keys(evaluator)

    class Interrupted(evaluator._routing_class):
        @classmethod
        def batch_destination_rows(cls, requests):
            raise KeyboardInterrupt

    monkeypatch.setattr(evaluator, "_routing_class", Interrupted)
    with pytest.raises(KeyboardInterrupt):
        evaluator.evaluate_moves(wh, wl, _moves("high", deltas))
    assert _keys(evaluator) == keys
    other = random_weights(net.num_links, rng)
    with pytest.raises(KeyboardInterrupt):
        evaluator.evaluate(other, wl)
    with pytest.raises(KeyboardInterrupt):
        evaluator.high_routing(other)
    assert _keys(evaluator) == keys
    monkeypatch.undo()
    fresh = DualTopologyEvaluator(net, evaluator.high_traffic, evaluator.low_traffic, mode=mode)
    children, evaluations = evaluator.evaluate_moves(wh, wl, _moves("high", deltas))
    for child, evaluation in zip(children, evaluations):
        _assert_fields_equal(evaluation, fresh.evaluate(*child))
    _assert_fields_equal(evaluator.evaluate(other, wl), fresh.evaluate(other, wl))


def test_evaluate_span_only_for_a_call_that_builds(tmp_path):
    """One ``evaluate`` span per call that misses the full cache (its size
    the call's move count); a call of hits opens none."""
    import json

    from repro import obs

    evaluator, rng = _evaluator("isp", LOAD_MODE, {})
    net = evaluator.network
    wh = random_weights(net.num_links, rng)
    wl = random_weights(net.num_links, rng)
    deltas = _random_single_deltas(wh, net.num_links, rng, 3)
    path = tmp_path / "spans.jsonl"
    obs.enable_tracing(path)
    try:
        evaluator.evaluate(wh, wl)
        evaluator.evaluate(wh, wl)
        evaluator.evaluate_moves(wh, wl, _moves("high", [WeightDelta(())] + deltas))
        evaluator.evaluate_moves(wh, wl, _moves("high", deltas))
        evaluator.evaluate_moves(wh, wl, _moves("high", deltas[:1]))
    finally:
        obs.disable_tracing()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["attrs"]["size"] for r in records if r["name"] == "evaluate"] == [1, 4]


@pytest.mark.parametrize("method", ("evaluate", "str"))
def test_lone_sla_layer_keeps_its_schedule(method):
    """An SLA high layer's routing keeps the schedule its lone delay pass
    compiled, so a later delay pass over it (``Session.scaled_traffic``)
    compiles nothing.  A routing alone in its batch (both classes of an STR
    setting) keeps its load schedule too: here the two classes' joint
    destination list, and the high class's list for the delays."""
    from repro.api import Session

    evaluator, rng = _evaluator("isp", SLA_MODE, {})
    net = evaluator.network
    wh = random_weights(net.num_links, rng)
    wl = wh if method == "str" else random_weights(net.num_links, rng)
    evaluator.evaluate(wh, wl)
    schedules = evaluator.high_routing(wh)._dest_schedules
    compiled = schedules.misses
    assert compiled == (2 if method == "str" else 1)
    session = Session.from_evaluator(evaluator)
    session.set_weights(wh, wl)
    session.scaled_traffic(1.5)
    assert schedules.misses == compiled


@pytest.mark.parametrize("mode", (LOAD_MODE, SLA_MODE))
def test_search_steps_build_no_dag_tuples(mode, monkeypatch):
    """A search's evaluations compile every schedule from distance rows:
    ``evaluate`` and three FindH and FindL steps of 5 deltas build no
    per-destination ``DestinationDag``, which only the path queries read."""
    from repro.routing import soa

    built = []

    class CountingDag(soa.DestinationDag):
        def __new__(cls, *fields):
            built.append(fields[0])
            return super().__new__(cls, *fields)

    monkeypatch.setattr(soa, "DestinationDag", CountingDag)
    evaluator, rng = _evaluator("isp", mode, {})
    net = evaluator.network
    wh = random_weights(net.num_links, rng)
    wl = random_weights(net.num_links, rng)
    evaluator.evaluate(wh, wl)
    for _ in range(3):
        deltas = _random_single_deltas(wh, net.num_links, rng, 5)
        (wh, _), *_ = evaluator.evaluate_moves(wh, wl, _moves("high", deltas))[0]
        deltas = _random_single_deltas(wl, net.num_links, rng, 5)
        (_, wl), *_ = evaluator.evaluate_moves(wh, wl, _moves("low", deltas))[0]
    stats = evaluator.cache_stats()
    assert stats["high_incremental"] > 0 and stats["low_incremental"] > 0
    assert built == []
