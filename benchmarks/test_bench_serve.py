"""Benchmark: the online serving stack vs naive per-request evaluation.

The serve subsystem's contract (ISSUE 5 acceptance): a closed-loop load
generator firing a mixed 100-node scenario workload (link, SRLG, node
failures and hot-spot surges, with the repeats a real operator workload
has) through the warm-pool + micro-batch + plan-cache path must sustain
at least **2x the queries/sec** of naive per-request evaluation, while
every response stays **byte-identical** to the naive answer.

The naive baseline is deliberately generous: it already holds a warm
session (baseline routings prebuilt) and merely evaluates each request
from scratch (:class:`repro._reference.ReferenceSession` — fresh
degraded routing and load pass per query, no cross-request sharing, no
result cache), which
is what a per-request service without this subsystem would do.  The
margin comes from the sweep engine's derived routings and reused load
rows plus plan-cache hits on repeated queries.
"""

from __future__ import annotations

import gc
import os
import random
import time
from concurrent.futures import ThreadPoolExecutor

from benchmarks.conftest import BENCH_SEED, emit_bench
from repro._reference import ReferenceSession
from repro.api import Session, serve_session
from repro.network.topology_powerlaw import powerlaw_topology
from repro.routing.weights import random_weights
from repro.serve.encoding import canonical_body, whatif_payload
from repro.traffic.gravity import gravity_traffic_matrix
from repro.traffic.highpriority import random_high_priority
from repro.traffic.scaling import scale_to_utilization

NUM_NODES = 100
NUM_LINK = 16
NUM_SRLG = 6
NUM_NODE = 6
NUM_SURGE = 4
REPEATS = 2  # each unique query appears twice: operators re-ask
CLIENTS = 8
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "2.0"))


def _workload():
    """100-node power-law baseline plus a mixed query stream of specs."""
    rng = random.Random(BENCH_SEED)
    net = powerlaw_topology(num_nodes=NUM_NODES, attachment=3, rng=rng)
    low = gravity_traffic_matrix(net.num_nodes, rng)
    high_traffic = random_high_priority(low, 0.1, 0.3, rng)
    high, low = scale_to_utilization(net, high_traffic.matrix, low, 0.6)
    wh = random_weights(net.num_links, rng)
    wl = random_weights(net.num_links, rng)

    pairs = net.duplex_pairs()
    sample = rng.sample(pairs, NUM_LINK + 2 * NUM_SRLG)
    specs = [f"link:{u}-{v}" for u, v in sample[:NUM_LINK]]
    srlg_pool = sample[NUM_LINK:]
    specs += [
        f"srlg:{u1}-{v1},{u2}-{v2}"
        for (u1, v1), (u2, v2) in zip(srlg_pool[::2], srlg_pool[1::2])
    ]
    specs += [f"node:{n}" for n in rng.sample(range(net.num_nodes), NUM_NODE)]
    specs += [
        f"surge:{n}x2.0" for n in rng.sample(range(net.num_nodes), NUM_SURGE)
    ]
    stream = specs * REPEATS
    rng.shuffle(stream)
    return net, high, low, wh, wl, specs, stream


def _make_session(net, high, low, wh, wl, batched: bool) -> Session:
    session_class = Session if batched else ReferenceSession
    session = session_class(net, high, low, cost_model="load")
    session.set_weights(wh, wl)
    return session.prepare()  # warm-up is untimed on both paths


def test_serve_throughput_and_bit_identity():
    net, high, low, wh, wl, specs, stream = _workload()

    def naive_pass():
        """Per-request evaluation on a warm but non-sharing session."""
        session = _make_session(net, high, low, wh, wl, batched=False)

        def answer(spec):
            with session.lock:
                return canonical_body(whatif_payload(session.under_scenario(spec)))

        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            with ThreadPoolExecutor(max_workers=CLIENTS) as executor:
                bodies = list(executor.map(answer, stream))
            return time.perf_counter() - start, dict(zip(stream, bodies))
        finally:
            gc.enable()

    def serve_pass():
        """The full stack: pinned warm session, scheduler, plan cache."""
        session = _make_session(net, high, low, wh, wl, batched=True)
        with serve_session(session) as service:

            def answer(spec):
                payload, _hit = service.whatif(spec)
                return canonical_body(payload)

            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                with ThreadPoolExecutor(max_workers=CLIENTS) as executor:
                    bodies = list(executor.map(answer, stream))
                elapsed = time.perf_counter() - start
            finally:
                gc.enable()
            return elapsed, dict(zip(stream, bodies)), service.metrics()

    naive_s, serve_s = float("inf"), float("inf")
    naive_bodies = serve_bodies = metrics = None
    for _ in range(2):  # best-of-2 damps scheduler noise
        elapsed, serve_bodies, metrics = serve_pass()
        serve_s = min(serve_s, elapsed)
        elapsed, naive_bodies = naive_pass()
        naive_s = min(naive_s, elapsed)

    # Bit-identity: the served bytes equal the naive per-request bytes
    # for every unique query in the stream.
    for spec in specs:
        assert serve_bodies[spec] == naive_bodies[spec], spec

    total = len(stream)
    naive_qps = total / naive_s
    serve_qps = total / serve_s
    speedup = serve_qps / naive_qps
    emit_bench(
        "serve",
        "closed_loop",
        {
            "naive_qps": naive_qps,
            "serve_qps": serve_qps,
            "speedup": speedup,
            "num_nodes": net.num_nodes,
            "num_links": net.num_links,
            "unique_queries": len(specs),
            "total_queries": total,
            "clients": CLIENTS,
            "metrics": metrics,
        },
    )
    print()
    print(
        f"closed-loop what-if serving, powerlaw ({net.num_nodes} nodes, "
        f"{net.num_links} links), {total} queries "
        f"({len(specs)} unique: {NUM_LINK} link + {NUM_SRLG} srlg + "
        f"{NUM_NODE} node + {NUM_SURGE} surge), {CLIENTS} clients"
    )
    print(f"  naive per-request: {naive_qps:8.2f} queries/s")
    print(f"  micro-batched:     {serve_qps:8.2f} queries/s")
    print(f"  speedup:           {speedup:8.2f}x (required >= {MIN_SPEEDUP}x)")
    print(f"  service metrics:   {metrics}")
    print()
    assert speedup >= MIN_SPEEDUP, (
        f"serving stack only {speedup:.2f}x the naive per-request "
        f"throughput (required >= {MIN_SPEEDUP}x)"
    )
