"""Tests for the ``repro.api`` Session and its what-if queries."""

import random
import warnings

import numpy as np
import pytest

from repro.api import Session
from repro.api.session import Session as SessionDirect
from repro.core.evaluator import DualTopologyEvaluator
from repro.eval.experiment import ExperimentConfig, derive_rng, scaled_config
from repro.routing.incremental import WeightDelta
from repro.routing.weights import random_weights, unit_weights
from repro.scenarios.algebra import LinkFailure

CONFIG = scaled_config(
    ExperimentConfig(topology="isp", target_utilization=0.5, seed=2), 0.02
)


def bumped(base, link, step=3):
    """A new weight for ``link`` that stays inside the legal [1, 30] range."""
    w = int(base[link])
    return w - step if w + step > 30 else w + step


@pytest.fixture
def session(isp_net, small_traffic) -> Session:
    high, low = small_traffic
    return Session(isp_net, high, low, cost_model="load", seed=7)


@pytest.fixture
def baseline_session(session) -> Session:
    session.set_weights(random_weights(session.network.num_links, random.Random(3)))
    return session


class TestConstruction:
    def test_reexported_from_api_package(self):
        assert Session is SessionDirect

    def test_from_config_is_deterministic(self):
        a = Session.from_config(CONFIG)
        b = Session.from_config(CONFIG)
        assert a.network == b.network
        assert a.high_traffic == b.high_traffic
        assert a.low_traffic == b.low_traffic
        assert a.config is CONFIG

    def test_from_config_respects_mode(self):
        config = scaled_config(
            ExperimentConfig(topology="isp", mode="sla", target_utilization=0.5), 0.02
        )
        session = Session.from_config(config)
        assert session.evaluator.mode == "sla"
        assert session.cost_model.name == "sla"

    def test_from_evaluator_shares_the_instance(self, isp_net, small_traffic):
        high, low = small_traffic
        evaluator = DualTopologyEvaluator(isp_net, high, low)
        session = Session.from_evaluator(evaluator)
        assert session.evaluator is evaluator
        assert session.cost_model.name == "load"

    def test_mode_mismatch_rejected(self, isp_net, small_traffic):
        high, low = small_traffic
        evaluator = DualTopologyEvaluator(isp_net, high, low, mode="load")
        with pytest.raises(ValueError, match="does not match"):
            Session.from_evaluator(evaluator, cost_model="sla")

    def test_derive_rng_matches_experiment_streams(self, session):
        assert session.derive_rng("search").random() == derive_rng(
            7, "search"
        ).random()
        # distinct streams are independent
        assert session.derive_rng("a").random() != session.derive_rng("b").random()


class TestBaseline:
    def test_queries_require_baseline(self, session):
        with pytest.raises(ValueError, match="set_weights"):
            session.what_if((0, 5))
        with pytest.raises(ValueError, match="set_weights"):
            session.evaluate()

    def test_set_weights_single_vector_covers_both(self, baseline_session):
        np.testing.assert_array_equal(
            baseline_session.high_weights, baseline_session.low_weights
        )

    def test_set_weights_validates_length(self, session):
        with pytest.raises(ValueError, match="length"):
            session.set_weights([1, 2, 3])

    def test_set_weights_rejects_fractional_and_zero_weights(self, session):
        """Invalid weights fail here, not truncated or later in a query."""
        n = session.network.num_links
        with pytest.raises(ValueError, match="integers"):
            session.set_weights([2.5] * n)
        with pytest.raises(ValueError, match="integers"):
            session.set_weights([2] * n, [2.5] * n)
        with pytest.raises(ValueError, match=">= 1"):
            session.set_weights([0] * n)

    def test_optimize_adopts_result(self, session):
        result = session.optimize("str", params=CONFIG.search_params)
        np.testing.assert_array_equal(session.high_weights, result.high_weights)
        np.testing.assert_array_equal(session.low_weights, result.low_weights)


class TestWhatIf:
    def test_bit_identical_to_full_reevaluation(self, baseline_session):
        """A what-if answer must equal a from-scratch evaluation exactly."""
        session = baseline_session
        base = session.high_weights
        link = 5
        new_w = bumped(base, link)
        result = session.what_if((link, new_w))

        full = DualTopologyEvaluator(session.network, session.high_traffic, session.low_traffic)
        new = base.copy()
        new[link] = new_w
        expected = full.evaluate(new, new)
        assert result.variant.phi_high == expected.phi_high
        assert result.variant.phi_low == expected.phi_low
        np.testing.assert_array_equal(result.variant.high_loads, expected.high_loads)
        np.testing.assert_array_equal(result.variant.low_loads, expected.low_loads)
        np.testing.assert_array_equal(
            result.variant.utilization, expected.utilization
        )

    def test_uses_incremental_derivation(self, baseline_session):
        session = baseline_session
        base = session.high_weights
        before = session.evaluator.cache_stats()
        session.what_if((2, bumped(base, 2, 1)))
        after = session.evaluator.cache_stats()
        assert after["high_incremental"] == before["high_incremental"] + 1
        assert after["low_incremental"] == before["low_incremental"] + 1

    def test_accepts_all_delta_spellings(self, baseline_session):
        session = baseline_session
        base = session.high_weights
        new_w = bumped(base, 4, 2)
        by_pair = session.what_if((4, new_w))
        by_dict = session.what_if({4: new_w})
        by_delta = session.what_if(WeightDelta.single(4, int(base[4]), new_w))
        assert (
            by_pair.variant_objective
            == by_dict.variant_objective
            == by_delta.variant_objective
        )

    def test_two_link_delta(self, baseline_session):
        session = baseline_session
        base = session.high_weights
        result = session.what_if({1: bumped(base, 1, 1), 9: bumped(base, 9, 2)})
        assert result.kind == "weights"
        assert "link 1" in result.description and "link 9" in result.description

    def test_per_topology_moves_differ(self, baseline_session):
        session = baseline_session
        base = session.high_weights
        spec = (3, bumped(base, 3, 4))
        high_only = session.what_if(spec, topology="high")
        low_only = session.what_if(spec, topology="low")
        # A high-priority move changes Phi_H; a low-only move cannot.
        assert high_only.variant.phi_high != low_only.variant.phi_high
        assert low_only.variant.phi_high == high_only.baseline.phi_high

    def test_rejects_bad_topology(self, baseline_session):
        with pytest.raises(ValueError, match="topology"):
            baseline_session.what_if((0, 5), topology="middle")

    def test_rejects_fractional_and_out_of_range_new_weights(self, baseline_session):
        """A non-integral or out-of-range new weight fails, never truncated."""
        session = baseline_session
        for spec in ((3, 2.5), {3: 2.5}, (3, 0), (3, 31)):
            with pytest.raises(ValueError, match="link weights"):
                session.what_if(spec)
        assert session.what_if((3, 2)).variant_objective == (
            session.what_if((3, 2.0)).variant_objective
        )

    def test_rejects_a_weight_delta_off_the_vector(self, baseline_session):
        """A ``WeightDelta`` on a link past the vector names that link, and
        nothing but the baseline's lookup touches the cache."""
        session = baseline_session
        n = session.network.num_links
        session.evaluate()
        stats = session.evaluator.cache_stats()
        with pytest.raises(ValueError, match=f"link {n + 2} outside a vector of {n} weights"):
            session.what_if(WeightDelta.single(n + 2, 3, 4))
        assert session.evaluator.cache_stats() == {**stats, "full_hits": stats["full_hits"] + 1}

    def test_rejects_bad_delta_type(self, baseline_session):
        with pytest.raises(TypeError, match="WeightDelta"):
            baseline_session.what_if("link3=5")

    def test_deltas_sum_consistently(self, baseline_session):
        session = baseline_session
        base = session.high_weights
        result = session.what_if((7, bumped(base, 7, 1)))
        np.testing.assert_allclose(
            result.utilization_delta,
            result.high_utilization_delta + result.low_utilization_delta,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            result.utilization_delta,
            result.variant.utilization - result.baseline.utilization,
            atol=1e-12,
        )


class TestUnderFailure:
    def test_failed_links_lose_their_load(self, baseline_session):
        session = baseline_session
        net = session.network
        u, v = net.duplex_pairs()[0]
        result = session.under_scenario(LinkFailure.single(u, v), kind="failure")
        assert result.kind == "failure"
        # Deltas are reported in intact link indexing: the failed links'
        # utilization drops to zero (delta == -baseline utilization).
        for link in net.links:
            if (link.src, link.dst) in ((u, v), (v, u)):
                assert result.utilization_delta[link.index] == pytest.approx(
                    -result.baseline.utilization[link.index]
                )


class TestScaledTraffic:
    def test_matches_full_rebuild(self, baseline_session):
        session = baseline_session
        factor = 1.3
        result = session.scaled_traffic(factor)

        rebuilt = Session(
            session.network,
            session.high_traffic.scaled(factor),
            session.low_traffic.scaled(factor),
            cost_model="load",
        )
        rebuilt.set_weights(session.high_weights, session.low_weights)
        expected = rebuilt.evaluate()
        assert result.variant.phi_high == pytest.approx(expected.phi_high, rel=1e-12)
        assert result.variant.phi_low == pytest.approx(expected.phi_low, rel=1e-12)
        np.testing.assert_allclose(
            result.variant.utilization, expected.utilization, rtol=1e-12
        )

    def test_runs_no_spf(self, baseline_session):
        """Scaling traffic must not rebuild or derive any routing layer."""
        session = baseline_session
        session.evaluate()
        before = session.evaluator.cache_stats()
        session.scaled_traffic(2.0)
        after = session.evaluator.cache_stats()
        for counter in ("high_full", "low_full", "high_incremental", "low_incremental"):
            assert after[counter] == before[counter]

    def test_load_mode_counts_only_the_baseline_lookup(self, baseline_session):
        """Load-mode pricing needs no routing: of every cache counter, only
        the baseline evaluation's own full-cache hit moves."""
        session = baseline_session
        session.evaluate()
        before = session.evaluator.cache_stats()
        session.scaled_traffic(2.0)
        expected = dict(before, full_hits=before["full_hits"] + 1)
        assert session.evaluator.cache_stats() == expected

    def test_identity_factor_is_neutral(self, baseline_session):
        result = baseline_session.scaled_traffic(1.0)
        assert result.primary_delta == pytest.approx(0.0)
        assert result.secondary_delta == pytest.approx(0.0)

    def test_rejects_negative_factor(self, baseline_session):
        with pytest.raises(ValueError, match="non-negative"):
            baseline_session.scaled_traffic(-0.5)

    @pytest.mark.parametrize(
        "factor, message",
        (
            (float("nan"), "must be finite"),
            (float("inf"), "must be finite"),
            (1e308, "must keep traffic finite"),  # a scaled load overflows
        ),
    )
    def test_rejects_non_finite_factor(self, baseline_session, factor, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=f"^traffic scale factor {message}"):
                baseline_session.scaled_traffic(factor)

    def test_sla_mode_penalty_scaling(self, isp_net, small_traffic):
        high, low = small_traffic
        session = Session(isp_net, high, low, cost_model="sla")
        session.set_weights(unit_weights(isp_net.num_links))
        result = session.scaled_traffic(1.5)
        rebuilt = Session(
            isp_net, high.scaled(1.5), low.scaled(1.5), cost_model="sla"
        )
        rebuilt.set_weights(unit_weights(isp_net.num_links))
        expected = rebuilt.evaluate()
        assert result.variant.penalty == pytest.approx(expected.penalty, rel=1e-12)
        assert result.variant.violations == expected.violations


class TestWhatIfResultFormat:
    def test_format_mentions_query_and_verdict(self, baseline_session):
        session = baseline_session
        base = session.high_weights
        text = session.what_if((3, bumped(base, 3, 2))).format()
        assert "what-if [weights]" in text
        assert "link 3" in text
        assert "objective" in text
        assert "verdict" in text
