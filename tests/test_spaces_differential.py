"""Differential oracle for combinatorial scenario spaces.

The contract under test: a dominance-pruned, streamed space sweep
(:func:`~repro.scenarios.sweep_scenario_space`) produces an aggregate
*identical* to two independent references —

* the same streamed sweep with pruning disabled (every scenario
  evaluated), and
* materializing the whole space, running the exhaustive batched
  :meth:`~repro.scenarios.SweepEngine.sweep`, and folding connected
  outcomes with numpy directly —

across small instances of all topology families, all space families,
both cost modes, and (through the lexicographic objective) both traffic
classes.  Pruning may only skip scenarios that are provably
disconnected, and disconnected scenarios contribute nothing but counts,
so the equality is exact, not approximate.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.evaluator import LOAD_MODE, SLA_MODE
from repro.eval.experiment import ExperimentConfig, build_traffic
from repro.network.graph import Network
from repro.network.topology_powerlaw import powerlaw_topology
from repro.network.topology_random import random_topology
from repro.routing.weights import random_weights
from repro.scenarios import (
    AllLinkFailures,
    AllNodeFailures,
    SrlgClosure,
    SweepEngine,
    sweep_scenario_space,
)
from repro.scenarios.aggregate import DEFAULT_CVAR_ALPHA, DEFAULT_PERCENTILES

FAMILIES = ("bridged", "random", "powerlaw")


def _bridged_topology() -> Network:
    """Two 4-cliques joined by one bridge adjacency.

    Failing the bridge (or isolating an endpoint) disconnects demand, so
    every dominance-pruning code path — single-adjacency probes, learned
    cores, superset pruning — actually fires on this topology.
    """
    net = Network(8, name="bridged")
    for block in ((0, 1, 2, 3), (4, 5, 6, 7)):
        for i, u in enumerate(block):
            for v in block[i + 1 :]:
                net.add_duplex_link(u, v)
    net.add_duplex_link(3, 4)
    return net


def _build_engine(family: str, mode: str = LOAD_MODE, seed: int = 5) -> SweepEngine:
    rng = random.Random(seed)
    if family == "bridged":
        net = _bridged_topology()
    elif family == "random":
        net = random_topology(num_nodes=10, num_directed_links=44, rng=rng)
    else:
        net = powerlaw_topology(num_nodes=10, attachment=2, rng=rng)
    config = ExperimentConfig(topology="random", mode=mode)
    high, low, _meta = build_traffic(net, config, rng)
    wh = random_weights(net.num_links, rng)
    wl = random_weights(net.num_links, rng)
    return SweepEngine(net, wh, wl, high, low, mode=mode)


def _numpy_oracle(engine: SweepEngine, space) -> dict:
    """Materialize the space and fold connected outcomes with numpy."""
    scenarios = list(space.scenarios(engine.network))
    result = engine.sweep(scenarios)
    primary, secondary, util = [], [], []
    disconnected = 0
    for outcome in result.outcomes:
        if outcome.disconnected:
            disconnected += 1
            continue
        primary.append(float(outcome.evaluation.objective.primary))
        secondary.append(float(outcome.evaluation.objective.secondary))
        util.append(float(outcome.evaluation.max_utilization))
    folded = {}
    for name, values in (
        ("primary", primary),
        ("secondary", secondary),
        ("max_utilization", util),
    ):
        arr = np.asarray(values, dtype=np.float64)
        var = np.percentile(arr, DEFAULT_CVAR_ALPHA * 100.0)
        folded[name] = {
            "worst": float(arr.max()),
            "mean": float(arr.mean()),
            "percentiles": tuple(
                (level, float(np.percentile(arr, level)))
                for level in DEFAULT_PERCENTILES
            ),
            "cvar": float(arr[arr >= var].mean()),
        }
    return {
        "scenarios": len(scenarios),
        "disconnected": disconnected,
        "metrics": folded,
    }


def _assert_same_aggregate(got, expected) -> None:
    """Bit-equality of two SpaceAggregate-shaped summaries."""
    assert got.connected == expected.connected
    assert got.disconnected == expected.disconnected
    for name in ("primary", "secondary", "max_utilization"):
        a = getattr(got, name)
        b = getattr(expected, name)
        assert a.worst == b.worst
        assert a.mean == b.mean
        assert a.percentiles == b.percentiles
        assert a.cvar == b.cvar


SPACES = (
    AllLinkFailures(k=2),
    AllLinkFailures(k=3),
    AllNodeFailures(),
    SrlgClosure(),
)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.spec())
def test_pruned_sweep_identical_to_unpruned(family, space):
    """Dominance pruning changes counts bookkeeping only, never aggregates."""
    engine = _build_engine(family)
    pruned = sweep_scenario_space(engine, space, prune=True)
    full = sweep_scenario_space(engine, space, prune=False)
    assert pruned.scenarios == full.scenarios == space.size(engine.network)
    assert pruned.disconnected == full.disconnected
    assert pruned.evaluated == full.evaluated - pruned.pruned
    assert full.pruned == 0
    _assert_same_aggregate(pruned.aggregate, full.aggregate)
    assert pruned.baseline_primary == full.baseline_primary
    assert pruned.baseline_secondary == full.baseline_secondary


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mode", (LOAD_MODE, SLA_MODE))
def test_streamed_aggregate_matches_numpy_over_exhaustive_sweep(family, mode):
    """Streaming fold == numpy over the materialized exhaustive sweep."""
    engine = _build_engine(family, mode=mode)
    space = AllLinkFailures(k=2)
    streamed = sweep_scenario_space(engine, space, prune=True)
    oracle = _numpy_oracle(_build_engine(family, mode=mode), space)
    assert streamed.scenarios == oracle["scenarios"]
    assert streamed.disconnected == oracle["disconnected"]
    for name in ("primary", "secondary", "max_utilization"):
        got = getattr(streamed.aggregate, name)
        want = oracle["metrics"][name]
        assert got.worst == want["worst"]
        assert got.mean == want["mean"]
        assert got.percentiles == want["percentiles"]
        assert got.cvar == want["cvar"]


def test_bridged_topology_actually_prunes():
    """The oracle only proves exactness if pruning fires; assert it does."""
    engine = _build_engine("bridged")
    result = sweep_scenario_space(engine, AllLinkFailures(k=2), prune=True)
    assert result.pruned > 0
    assert result.disconnected >= result.pruned
    # Every pruned scenario was skipped, not evaluated.
    assert result.evaluated + result.pruned == result.scenarios


@pytest.mark.parametrize("family", FAMILIES)
def test_all_node_space_matches_kind_enumeration(family):
    """space:all-node covers exactly one single-node failure per node."""
    engine = _build_engine(family)
    space = AllNodeFailures()
    result = sweep_scenario_space(engine, space)
    assert result.scenarios == engine.network.num_nodes
    specs = [s.spec() for s in space.scenarios(engine.network)]
    assert specs == [f"node:{n}" for n in engine.network.nodes()]


def test_chunk_size_does_not_change_the_answer():
    """Chunking is a scheduling detail: any chunk size, same aggregate."""
    engine = _build_engine("bridged")
    space = AllLinkFailures(k=2)
    reference = sweep_scenario_space(engine, space, chunk_size=64)
    for chunk_size in (1, 3, 7, 1000):
        other = sweep_scenario_space(engine, space, chunk_size=chunk_size)
        _assert_same_aggregate(other.aggregate, reference.aggregate)
        assert other.pruned == reference.pruned


def test_identical_space_sweeps_on_one_session_report_equal_stats():
    """A space sweep's ``stats`` are its own, not the engine's lifetime."""
    from repro.api import Session

    engine = _build_engine("bridged")
    session = Session(
        engine.network, engine.high_traffic, engine.low_traffic, cost_model="load"
    )
    session.set_weights(engine._high.weights, engine._low.weights)
    first = session.sweep_space("space:all-link-1")
    second = session.sweep_space("space:all-link-1")
    assert first.stats == second.stats
    assert first.stats["scenarios"] == first.evaluated


def test_space_sweep_reaches_the_engine_event_counters():
    """Streaming sweeps add exactly their ``stats`` to the obs counters."""
    from repro import obs

    engine = _build_engine("bridged")
    counters = {
        key: obs.counter("repro_scenarios_engine_events_total", labels={"event": key})
        for key in engine.stats
    }
    before = {key: counter.value for key, counter in counters.items()}
    result = sweep_scenario_space(engine, AllLinkFailures(k=2))
    assert result.stats["scenarios"] == result.evaluated > 0
    assert {
        key: counter.value - before[key] for key, counter in counters.items()
    } == result.stats
