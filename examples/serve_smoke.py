"""Closed-loop smoke client for the ``repro-dtr serve`` HTTP service.

Fires a mixed batch of concurrent ``/whatif`` and ``/sweep`` queries at
a running server and verifies, end to end, the serving stack's two
contracts:

* **Bit-identity** — every HTTP response body (minus the transport-only
  ``served`` envelope) equals, byte for byte, the encoding of a direct
  ``Session.under_scenario`` / ``Session.sweep`` call on an independent
  session built from the same :class:`~repro.serve.SessionSpec`;
* **Observability** — ``/metrics`` counters move by exactly the traffic
  just sent: scheduler ``queries`` and plan-cache ``lookups`` each rise
  by the number of what-ifs (a hit answered before the queue counts
  once, like any other), the cache's hits rise by the hits the client
  saw, ``hits + misses == lookups``, and ``errors`` stays put.

Exits non-zero on any mismatch; CI's ``serve-smoke`` job runs exactly
this against a freshly started server.  Run it yourself::

    PYTHONPATH=src python -m repro.cli serve --topology isp \\
        --utilization 0.5 --port 8093 &
    PYTHONPATH=src python examples/serve_smoke.py \\
        --url http://127.0.0.1:8093 --topology isp --utilization 0.5
"""

from __future__ import annotations

import argparse
import json
import sys
import urllib.request
from concurrent.futures import ThreadPoolExecutor


def _post(url: str, payload: dict) -> tuple[int, bytes]:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return response.status, response.read()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", default="http://127.0.0.1:8093")
    parser.add_argument("--topology", default="isp")
    parser.add_argument("--mode", default="load")
    parser.add_argument("--utilization", type=float, default=0.5)
    parser.add_argument("--fraction", type=float, default=0.30)
    parser.add_argument("--density", type=float, default=0.10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=3,
                        help="times each unique query is issued")
    parser.add_argument("--concurrency", type=int, default=8)
    args = parser.parse_args(argv)

    from repro.scenarios.spec import ScenarioSet, enumerate_scenarios, parse_scenario
    from repro.serve import SessionSpec, canonical_body, sweep_payload, whatif_payload

    spec = SessionSpec(
        topology=args.topology,
        mode=args.mode,
        utilization=args.utilization,
        fraction=args.fraction,
        density=args.density,
        seed=args.seed,
    )
    session_body = spec.to_jsonable()
    session = spec.build()

    queries = [
        "link:0-4",
        "node:3",
        "srlg:0-4,2-5",
        "scale:1.25",
        "surge:3x2.0",
        "shift:2>5@0.3",
        "link:0-4+surge:3x2.0",
    ]
    expected = {
        q: canonical_body(whatif_payload(session.under_scenario(q)))
        for q in queries
    }

    def read_metrics() -> dict:
        with urllib.request.urlopen(args.url + "/metrics") as response:
            return json.loads(response.read())

    before = read_metrics()

    def whatif(q: str) -> tuple[str, bytes, bool]:
        status, body = _post(
            args.url + "/whatif", {"scenario": q, "session": session_body}
        )
        assert status == 200, body
        data = json.loads(body)
        hit = data.pop("served")["cache_hit"]
        return q, canonical_body(data), hit

    stream = queries * args.rounds
    mismatches = 0
    hits = 0
    with ThreadPoolExecutor(max_workers=args.concurrency) as executor:
        for q, body, hit in executor.map(whatif, stream):
            hits += hit
            if body != expected[q]:
                mismatches += 1
                print(f"MISMATCH on {q!r}", file=sys.stderr)

    # One sweep, compared byte for byte against the direct engine.
    status, body = _post(
        args.url + "/sweep", {"kinds": ["link"], "session": session_body}
    )
    assert status == 200, body
    specs = [s.spec() for s in enumerate_scenarios(session.network, "link")]
    direct = session.sweep(ScenarioSet([parse_scenario(s) for s in specs]))
    sweep_ok = body == canonical_body(sweep_payload(direct, specs))
    if not sweep_ok:
        print("MISMATCH on sweep kinds=['link']", file=sys.stderr)

    after = read_metrics()

    def delta(component: str, counter: str) -> int:
        return after[component][counter] - before[component][counter]

    cache = after["plan_cache"]
    expected_hits = len(stream) - len(queries)
    counters_ok = (
        delta("scheduler", "queries") == len(stream)
        and delta("plan_cache", "lookups") == len(stream)
        and cache["hits"] + cache["misses"] == cache["lookups"]
        and delta("plan_cache", "hits") == hits
        and delta("scheduler", "cache_hits") == hits
        and delta("scheduler", "errors") == 0
        and hits >= expected_hits
    )
    if not counters_ok:
        print(f"unexpected counters: before {before}, after {after}", file=sys.stderr)

    print(
        f"serve smoke: {len(stream)} whatif queries "
        f"({len(queries)} unique, {hits} cache hits), "
        f"{len(specs)}-scenario sweep, mismatches={mismatches}, "
        f"sweep_ok={sweep_ok}, counters_ok={counters_ok}"
    )
    return 0 if (mismatches == 0 and sweep_ok and counters_ok) else 1


if __name__ == "__main__":
    sys.exit(main())
