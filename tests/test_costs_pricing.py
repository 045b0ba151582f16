"""The one costing pass (``repro.costs.pricing``) behind every evaluation path.

The evaluator, the sweep engine, ``Session.scaled_traffic`` and
``evaluate_load_cost``/``evaluate_sla_cost`` on fresh routings all price
through :func:`price_high` and :meth:`HighPrice.evaluation`, and all sum
their loads through ``ClassLoads.refresh``, so on the intact network at
scale 1.0 they must agree bit for bit in *every* field, the per-link
arrays and the SLA link delays included.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro.api.session import Session
from repro.costs import LOAD_MODE, SLA_MODE, price_high
from repro.costs.load_cost import LoadCostEvaluation, evaluate_load_cost
from repro.costs.sla import SlaCostEvaluation, evaluate_sla_cost
from repro.eval.experiment import ExperimentConfig
from repro.routing.state import Routing
from repro.routing.weights import random_weights
from repro.scenarios import SweepEngine

TOPOLOGIES = ("isp", "random", "powerlaw")


def _assert_fields_identical(a, b):
    assert type(a) is type(b)
    for field in dataclasses.fields(a):
        left, right = getattr(a, field.name), getattr(b, field.name)
        if isinstance(left, np.ndarray):
            assert left.dtype == right.dtype, field.name
            np.testing.assert_array_equal(left, right, err_msg=field.name)
        else:
            assert left == right, field.name


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("mode", (LOAD_MODE, SLA_MODE))
@pytest.mark.parametrize("dual", (True, False))
def test_evaluator_engine_and_scaled_traffic_agree_bitwise(topology, mode, dual):
    session = Session.from_config(ExperimentConfig(topology=topology, mode=mode, seed=4))
    rng = random.Random(11)
    wh = random_weights(session.network.num_links, rng)
    wl = random_weights(session.network.num_links, rng) if dual else wh
    session.set_weights(wh, wl)

    evaluated = session.evaluator.evaluate(wh, wl)
    engine = SweepEngine(
        session.network,
        wh,
        wl,
        session.high_traffic,
        session.low_traffic,
        mode=mode,
        sla_params=session.sla_params,
    )
    scaled = session.scaled_traffic(1.0).variant
    net = session.network
    high_routing = Routing(net, wh)
    low_routing = Routing(net, wl) if dual else high_routing
    traffic = (session.high_traffic, session.low_traffic)
    if mode == LOAD_MODE:
        direct = evaluate_load_cost(net, high_routing, low_routing, *traffic)
    else:
        direct = evaluate_sla_cost(net, high_routing, low_routing, *traffic, session.sla_params)

    expected_type = LoadCostEvaluation if mode == LOAD_MODE else SlaCostEvaluation
    assert type(evaluated) is expected_type
    _assert_fields_identical(evaluated, engine.baseline)
    _assert_fields_identical(evaluated, scaled)
    _assert_fields_identical(evaluated, direct)


def test_load_price_looks_up_no_routing(isp_net, small_traffic):
    high, _low = small_traffic
    loads = Routing(isp_net, np.ones(isp_net.num_links)).link_loads(high)

    def no_lookup():
        raise AssertionError("a load-mode price looked a routing up")

    price = price_high(isp_net, loads, LOAD_MODE, routing=no_lookup)
    assert price.params is None and price.link_delays is None
    np.testing.assert_array_equal(
        price.residual, np.maximum(isp_net.capacities() - loads, 0.0)
    )
