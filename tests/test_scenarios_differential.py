"""Differential oracle for the scenario engine.

The contract: for **every** scenario class, batched/incremental
evaluation must be *bit-identical* to building the degraded network from
scratch and running the full evaluator on it.  Three independent paths
are compared across all three topology families:

* the batched :func:`~repro.scenarios.sweep_scenarios` (derived
  routings, shared projections, reused load rows),
* the naive :class:`~repro._reference.NaiveSweepEngine` (fresh routing
  + full loads per scenario),
* a from-scratch :class:`~repro.core.evaluator.DualTopologyEvaluator`
  constructed over the lowered network and routable traffic — the same
  oracle pattern as ``tests/test_evaluator_incremental.py``.
"""

from __future__ import annotations

import random
import warnings

import numpy as np
import pytest

from repro._reference import NaiveSweepEngine
from repro.core.evaluator import LOAD_MODE, SLA_MODE, DualTopologyEvaluator
from repro.eval.experiment import ExperimentConfig, build_network, build_traffic
from repro.routing import incremental
from repro.routing.spf import distances_to_all
from repro.routing.state import Routing
from repro.routing.weights import random_weights
from repro.scenarios import batch
from repro.scenarios import (
    HotSpotSurge,
    LinkFailure,
    NodeFailure,
    SrlgFailure,
    SweepEngine,
    TrafficScale,
    TrafficShift,
    compose,
    sweep_scenarios,
)

TOPOLOGIES = ("random", "isp", "powerlaw")


def _setup(topology: str, mode: str = LOAD_MODE, seed: int = 5):
    config = ExperimentConfig(topology=topology, mode=mode)
    rng = random.Random(seed)
    net = build_network(topology, seed)
    high, low, _meta = build_traffic(net, config, rng)
    wh = random_weights(net.num_links, rng)
    wl = random_weights(net.num_links, rng)
    return net, high, low, wh, wl


def _mixed_scenarios(net):
    """One deterministic instance of every scenario class, plus compositions."""
    pairs = net.duplex_pairs()
    n = net.num_nodes
    return [
        LinkFailure.single(*pairs[0]),
        LinkFailure.single(*pairs[len(pairs) // 2]),
        LinkFailure(pairs=(pairs[1], pairs[3])),
        NodeFailure.single(2),
        NodeFailure.single(n - 1),
        SrlgFailure(pairs=(pairs[4], pairs[5]), name="g0"),
        TrafficScale(1.25),
        TrafficScale(0.5),
        HotSpotSurge(node=3, factor=2.0),
        TrafficShift(src=1, dst=n - 2, fraction=0.5),
        compose(LinkFailure.single(*pairs[2]), HotSpotSurge(node=5, factor=2.0)),
        compose(NodeFailure.single(6), TrafficScale(1.5)),
    ]


def _naive_sweep(net, wh, wl, high, low, scenarios):
    """The per-scenario rebuild every batched sweep must equal."""
    return NaiveSweepEngine(net, wh, wl, high, low).sweep(scenarios)


def _assert_same_load_evaluation(got, expected):
    assert got.phi_high == expected.phi_high
    assert got.phi_low == expected.phi_low
    np.testing.assert_array_equal(got.high_loads, expected.high_loads)
    np.testing.assert_array_equal(got.low_loads, expected.low_loads)
    np.testing.assert_array_equal(got.utilization, expected.utilization)
    np.testing.assert_array_equal(got.residual, expected.residual)


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_batched_sweep_bit_identical_to_full_evaluator(topology):
    """Batched outcomes equal a from-scratch evaluator per scenario."""
    net, high, low, wh, wl = _setup(topology)
    result = sweep_scenarios(net, wh, wl, high, low, _mixed_scenarios(net))
    for outcome in result.outcomes:
        lowered = outcome.lowered
        oracle = DualTopologyEvaluator(
            lowered.network, lowered.high_traffic, lowered.low_traffic,
            mode=LOAD_MODE,
        )
        expected = oracle.evaluate(
            lowered.project_weights(wh), lowered.project_weights(wl)
        )
        _assert_same_load_evaluation(outcome.evaluation, expected)
    # The engine must actually have exercised its reuse paths.
    assert result.stats["derived_routings"] + result.stats["shared_routings"] > 0
    assert result.stats["reused_rows"] > 0


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_batched_equals_naive_per_scenario_rebuild(topology):
    """Batched and naive sweeps agree bit for bit, outcome by outcome."""
    net, high, low, wh, wl = _setup(topology, seed=9)
    scenarios = _mixed_scenarios(net)
    batched = sweep_scenarios(net, wh, wl, high, low, scenarios)
    naive = _naive_sweep(net, wh, wl, high, low, scenarios)
    _assert_same_load_evaluation(batched.baseline, naive.baseline)
    assert len(batched.outcomes) == len(naive.outcomes)
    for b, n in zip(batched.outcomes, naive.outcomes):
        assert b.disconnected == n.disconnected
        assert b.lost_demand == n.lost_demand
        assert b.lowered.disconnected_pairs == n.lowered.disconnected_pairs
        _assert_same_load_evaluation(b.evaluation, n.evaluation)
    # Naive mode must not have reused anything.
    assert naive.stats["reused_rows"] == 0
    assert naive.stats["derived_routings"] == 0


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_row_reuse_follows_the_per_destination_rule(topology):
    """Reuse counts equal the reuse rule applied destination by destination.

    A destination's intact load row is reused iff it has one, the row
    puts no flow on a failed link, and the scenario leaves its demand
    column unchanged; every other active destination is recomputed.
    """
    net, high, low, wh, wl = _setup(topology)
    engine = SweepEngine(net, wh, wl, high, low)
    intact = ((Routing(net, wh), high), (Routing(net, wl), low))
    for scenario in _mixed_scenarios(net):
        reused, recomputed = engine.stats["reused_rows"], engine.stats["recomputed_rows"]
        lowered = engine.evaluate(scenario).lowered
        failed = list(lowered.projection.failed_links)
        expected_reused = expected_total = 0
        for (routing, traffic), demands in zip(
            intact, (lowered.high_traffic.demands, lowered.low_traffic.demands)
        ):
            for t in np.flatnonzero(demands.sum(axis=0) > 0):
                expected_total += 1
                column = traffic.demands[:, t]
                if column.sum() > 0:
                    row = routing.destination_rows([t], column[None, :])[0]
                    if not row[failed].any() and np.array_equal(demands[:, t], column):
                        expected_reused += 1
        assert engine.stats["reused_rows"] - reused == expected_reused, scenario
        assert (
            engine.stats["recomputed_rows"] - recomputed
            == expected_total - expected_reused
        ), scenario


@pytest.mark.parametrize("fallback_fraction", [0.0, 1.01])
def test_forced_fallback_and_forced_derivation_agree(fallback_fraction, monkeypatch):
    """Both sides of the affected-set size cutoff stay bit-identical.

    ``0.0`` forces the full-SPF fallback for every failure; ``1.01``
    forces derivation even for huge affected sets.
    """
    monkeypatch.setattr(incremental, "DEFAULT_FALLBACK_FRACTION", fallback_fraction)
    net, high, low, wh, wl = _setup("isp", seed=3)
    scenarios = _mixed_scenarios(net)
    forced = sweep_scenarios(net, wh, wl, high, low, scenarios)
    naive = _naive_sweep(net, wh, wl, high, low, scenarios)
    for f, n in zip(forced.outcomes, naive.outcomes):
        _assert_same_load_evaluation(f.evaluation, n.evaluation)
    if fallback_fraction == 0.0:
        assert forced.stats["derived_routings"] == 0
    else:
        assert forced.stats["full_routings"] == 0


def test_sla_mode_bit_identical():
    """SLA-mode scenarios: penalties and per-pair delays match the oracle."""
    net, high, low, wh, _wl = _setup("isp", mode=SLA_MODE, seed=13)
    scenarios = _mixed_scenarios(net)
    batched = sweep_scenarios(net, wh, wh, high, low, scenarios, mode=SLA_MODE)
    for outcome in batched.outcomes:
        lowered = outcome.lowered
        oracle = DualTopologyEvaluator(
            lowered.network, lowered.high_traffic, lowered.low_traffic,
            mode=SLA_MODE,
        )
        expected = oracle.evaluate(
            lowered.project_weights(wh), lowered.project_weights(wh)
        )
        assert outcome.evaluation.penalty == expected.penalty
        assert outcome.evaluation.phi_low == expected.phi_low
        assert outcome.evaluation.violations == expected.violations
        assert outcome.evaluation.pair_delays_ms == expected.pair_delays_ms
        np.testing.assert_array_equal(
            outcome.evaluation.high_loads, expected.high_loads
        )
        np.testing.assert_array_equal(
            outcome.evaluation.low_loads, expected.low_loads
        )


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_node_failure_routings_equal_from_scratch_distances(topology):
    """Derived degraded routings carry no stale entries for isolated nodes.

    A failed node's column is copied from the intact parent unless the
    derivation resets it; a stale finite entry also makes the SoA kernel
    divide 0 by 0, so RuntimeWarnings are errors here.
    """
    net, high, low, wh, _wl = _setup(topology)
    engine = SweepEngine(net, wh, wh, high, low)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for node in range(net.num_nodes):
            projection = engine.evaluate(NodeFailure.single(node)).lowered.projection
            derived = engine._class_routing(engine._high, projection)
            np.testing.assert_array_equal(
                derived.distance_matrix,
                distances_to_all(projection.network, projection.project_weights(wh)),
            )


def _assert_same_outcomes(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.lowered.description == e.lowered.description
        assert g.disconnected == e.disconnected
        assert g.lost_demand == e.lost_demand
        _assert_same_load_evaluation(g.evaluation, e.evaluation)


def test_engine_memos_stay_within_their_cap(monkeypatch):
    """Both memos hold at most the cap; answers and hit counts stay exact.

    Ten distinct failures through a cap of 4 keep the last four; the two
    repeats that follow are the only projection hits.  Counting every
    insert that left the memo's length unchanged would also count the
    six inserts made while it was full.
    """
    monkeypatch.setattr(batch, "MEMO_CAP", 4)
    net, high, low, wh, wl = _setup("isp", seed=3)
    failures = [LinkFailure.single(*pair) for pair in net.duplex_pairs()[:10]]
    queries = failures + failures[-2:]
    engine = SweepEngine(net, wh, wl, high, low)
    naive = NaiveSweepEngine(net, wh, wl, high, low)
    outcomes = []
    for scenario in queries:
        outcomes.append(engine.evaluate(scenario))
        assert len(engine._projections) <= 4
        assert len(engine._routings) <= 4
    _assert_same_outcomes(outcomes, [naive.evaluate(s) for s in queries])
    assert engine.stats["shared_projections"] == 2
    # A sweep prefetches at most the cap and builds the rest on demand.
    swept = SweepEngine(net, wh, wl, high, low).sweep(queries)
    _assert_same_outcomes(swept.outcomes, outcomes)
    assert swept.stats["shared_projections"] == 2


def test_sweep_stats_are_per_call_and_sum_over_evaluations():
    """A sweep reports its own counts: equal to evaluating one by one on
    a fresh engine, and independent of what the engine did before."""
    net, high, low, wh, wl = _setup("isp", seed=3)
    pairs = net.duplex_pairs()
    scenarios = _mixed_scenarios(net) + [
        LinkFailure.single(*pairs[0]),
        compose(LinkFailure.single(*pairs[0]), TrafficScale(1.5)),
    ]
    one_by_one = SweepEngine(net, wh, wl, high, low)
    for scenario in scenarios:
        one_by_one.evaluate(scenario)
    engine = SweepEngine(net, wh, wl, high, low)
    first = engine.sweep(scenarios)
    assert first.stats == one_by_one.stats
    assert first.stats["shared_projections"] >= 2
    second = engine.sweep(scenarios)
    assert second.stats["scenarios"] == len(scenarios)
    assert second.stats["shared_projections"] == len(scenarios)
    assert engine.stats["scenarios"] == 2 * len(scenarios)


def test_engine_rejects_fractional_weights():
    """Weights are validated, not truncated: 2.5 must not evaluate as 2."""
    net, high, low, wh, _wl = _setup("isp")
    with pytest.raises(ValueError, match="integers"):
        SweepEngine(net, wh + 0.5, wh, high, low)
    with pytest.raises(ValueError, match="integers"):
        SweepEngine(net, wh, wh + 0.5, high, low)


def test_sweep_scenarios_rejects_fractional_weights():
    net, high, low, wh, _wl = _setup("isp")
    with pytest.raises(ValueError, match="integers"):
        sweep_scenarios(net, wh + 0.5, wh + 0.5, high, low, [NodeFailure.single(2)])


class TestSessionPath:
    """`Session.under_scenario` / `Session.sweep` ride the same engine."""

    @pytest.fixture
    def session(self):
        from repro.api import Session

        net, high, low, wh, wl = _setup("isp", seed=7)
        session = Session(net, high, low, cost_model="load")
        session.set_weights(wh, wl)
        return session, wh, wl

    def test_under_scenario_variant_matches_oracle(self, session):
        session, wh, wl = session
        scenario = compose(
            NodeFailure.single(4), HotSpotSurge(node=7, factor=2.0)
        )
        result = session.under_scenario(scenario)
        lowered = scenario.lower(
            session.network, session.high_traffic, session.low_traffic
        )
        oracle = DualTopologyEvaluator(
            lowered.network, lowered.high_traffic, lowered.low_traffic,
            mode=LOAD_MODE,
        )
        expected = oracle.evaluate(
            lowered.project_weights(wh), lowered.project_weights(wl)
        )
        _assert_same_load_evaluation(result.variant, expected)
        assert result.kind == "scenario"
        assert result.scenario_kind == "compose"
        assert result.disconnected == lowered.disconnected
        assert result.lost_demand == lowered.lost_demand

    def test_under_scenario_accepts_spec_strings(self, session):
        session, _wh, _wl = session
        by_string = session.under_scenario("node:3")
        by_object = session.under_scenario(NodeFailure.single(3))
        assert by_string.variant_objective == by_object.variant_objective

    def test_sweep_matches_individual_queries(self, session):
        session, _wh, _wl = session
        scenarios = _mixed_scenarios(session.network)
        sweep = session.sweep(scenarios)
        for scenario, outcome in zip(scenarios, sweep.outcomes):
            single = session.under_scenario(scenario)
            _assert_same_load_evaluation(single.variant, outcome.evaluation)

    def test_failed_links_lose_their_load_in_back_projection(self, session):
        session, _wh, _wl = session
        net = session.network
        u, v = net.duplex_pairs()[1]
        result = session.under_scenario(LinkFailure.single(u, v))
        for link in net.links:
            if (link.src, link.dst) in ((u, v), (v, u)):
                assert result.utilization_delta[link.index] == pytest.approx(
                    -result.baseline.utilization[link.index]
                )
