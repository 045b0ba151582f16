"""Tests for the experiment runner."""

import random

import pytest

from repro.core.search_params import SearchParams
from repro.eval.experiment import (
    ExperimentConfig,
    build_network,
    build_traffic,
    run_comparison,
    scaled_config,
    sweep_utilization,
)

TINY = SearchParams(
    iterations_high=8, iterations_low=8, iterations_refine=10, diversification_interval=6
)


def tiny_config(**overrides) -> ExperimentConfig:
    return ExperimentConfig(topology="isp", search_params=TINY, **overrides)


class TestConfig:
    def test_defaults_match_paper_base(self):
        config = ExperimentConfig()
        assert config.high_fraction == 0.30
        assert config.high_density == 0.10
        assert config.mode == "load"
        assert config.sla_params.theta_ms == 25.0

    def test_validation(self):
        with pytest.raises(ValueError, match="topology"):
            ExperimentConfig(topology="mesh")
        with pytest.raises(ValueError, match="mode"):
            ExperimentConfig(mode="jitter")
        with pytest.raises(ValueError, match="model"):
            ExperimentConfig(high_model="spider")
        with pytest.raises(ValueError, match="target_utilization"):
            ExperimentConfig(target_utilization=0.0)


class TestBuildNetwork:
    def test_families(self):
        assert build_network("random", 1).num_links == 150
        assert build_network("powerlaw", 1).num_links == 162
        assert build_network("isp", 1).num_links == 70

    def test_seeded(self):
        assert build_network("random", 5) == build_network("random", 5)
        assert build_network("random", 5) != build_network("random", 6)

    def test_unknown(self):
        with pytest.raises(ValueError):
            build_network("torus", 1)


class TestBuildTraffic:
    def test_scaling_and_fraction(self):
        config = tiny_config(target_utilization=0.55)
        net = build_network(config.topology, config.seed)
        high, low, meta = build_traffic(net, config, random.Random(3))
        f = high.total() / (high.total() + low.total())
        assert f == pytest.approx(config.high_fraction)
        assert meta.fraction == config.high_fraction

    def test_sink_model(self):
        config = tiny_config(high_model="sink", sink_placement="local")
        net = build_network(config.topology, config.seed)
        _, _, meta = build_traffic(net, config, random.Random(4))
        assert len(meta.sinks) == config.sink_count
        assert len(meta.clients) == config.client_count


class TestRunComparison:
    def test_basic_invariants(self):
        result = run_comparison(tiny_config())
        assert result.ratio_high >= 1.0 - 1e-9
        assert result.ratio_low >= 1.0 - 1e-9
        assert result.dtr_result.objective <= result.str_result.objective
        assert 0 < result.average_utilization < 2.0

    def test_relaxed_ratios(self):
        result = run_comparison(tiny_config(relaxation_epsilons=(0.05, 0.30)))
        r = result.ratio_low
        r5 = result.relaxed_ratio_low(0.05)
        r30 = result.relaxed_ratio_low(0.30)
        assert r30 <= r5 + 1e-9
        assert r5 <= r + 1e-9

    def test_relaxed_ratio_missing_epsilon(self):
        result = run_comparison(tiny_config())
        with pytest.raises(KeyError):
            result.relaxed_ratio_low(0.05)

    def test_deterministic(self):
        a = run_comparison(tiny_config(seed=9))
        b = run_comparison(tiny_config(seed=9))
        assert a.str_result.objective == b.str_result.objective
        assert a.dtr_result.objective == b.dtr_result.objective

    def test_sla_mode(self):
        result = run_comparison(tiny_config(mode="sla", target_utilization=0.5))
        assert (
            result.dtr_result.evaluation.penalty
            <= result.str_result.evaluation.penalty + 1e-9
        )
        assert result.ratio_low >= 1.0 - 1e-9


def test_sweep_utilization():
    results = sweep_utilization(tiny_config(), [0.4, 0.7])
    assert [r.config.target_utilization for r in results] == [0.4, 0.7]
    assert results[0].average_utilization < results[1].average_utilization


def test_scaled_config():
    config = scaled_config(tiny_config(), 0.5)
    assert config.search_params.iterations_high == 4
