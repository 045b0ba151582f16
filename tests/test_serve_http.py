"""HTTP frontend: differential bit-identity, error contract, logging.

The acceptance contract of the serving tentpole: responses produced by
the HTTP/scheduler path are **bit-identical** to direct
``Session.under_scenario`` / ``Session.sweep`` calls for every
registered scenario kind, under concurrent load.  The reference session
is built independently from the same :class:`SessionSpec`, so the test
also exercises the pool's deterministic-rebuild guarantee.
"""

from __future__ import annotations

import http.client
import json
import socket
import socketserver
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import obs
from repro.scenarios.spec import ScenarioSet, canonical_spec, enumerate_scenarios
from repro.serve import (
    ServeService,
    SessionSpec,
    WhatIfServer,
    canonical_body,
    sweep_payload,
    whatif_payload,
)

SPEC = SessionSpec(topology="isp", utilization=0.5)

# One query per registered kind, plus a composition and a multi-element
# failure — the differential surface the acceptance criterion names.
KIND_QUERIES = [
    "link:0-4",
    "link:0-4,2-5",
    "node:3",
    "srlg:0-4,2-5",
    "scale:1.25",
    "surge:3x2.0",
    "shift:2>5@0.3",
    "link:0-4+surge:3x2.0",
    "node:3+scale:1.25",
]


@pytest.fixture(scope="module")
def server():
    service = ServeService(SPEC)
    srv = WhatIfServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


@pytest.fixture(scope="module")
def base_url(server):
    host, port = server.server_address
    return f"http://{host}:{port}"


@pytest.fixture(scope="module")
def reference_session():
    """An independent warm session built from the same spec."""
    return SPEC.build()


def _post(base_url: str, path: str, payload: dict) -> tuple[int, bytes]:
    request = urllib.request.Request(
        base_url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _get(base_url: str, path: str) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(base_url + path) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _served_body_without_envelope(body: bytes) -> bytes:
    """Strip the transport-only 'served' block before byte comparison."""
    data = json.loads(body)
    data.pop("served")
    return canonical_body(data)


# ----------------------------------------------------------------------
# Differential bit-identity under concurrent load
# ----------------------------------------------------------------------
def test_whatif_bit_identical_to_direct_session_under_concurrency(
    base_url, reference_session
):
    expected = {
        q: canonical_body(
            whatif_payload(
                reference_session.under_scenario(canonical_spec(q))
            )
        )
        for q in KIND_QUERIES
    }

    def query(q):
        status, body = _post(base_url, "/whatif", {"scenario": q})
        assert status == 200, body
        return q, _served_body_without_envelope(body)

    # Two rounds of every kind from 8 threads: cache hits and misses,
    # coalesced batches, repeated canonical keys — all must serve the
    # exact reference bytes.
    with ThreadPoolExecutor(max_workers=8) as executor:
        for q, body in executor.map(query, KIND_QUERIES * 2):
            assert body == expected[q], q


def test_sweep_bit_identical_to_direct_session(base_url, reference_session):
    status, body = _post(base_url, "/sweep", {"kinds": ["link", "node"]})
    assert status == 200
    specs = [
        s.spec()
        for kind in ("link", "node")
        for s in enumerate_scenarios(reference_session.network, kind)
    ]
    with reference_session.lock:
        result = reference_session.sweep(
            ScenarioSet(
                [
                    s
                    for kind in ("link", "node")
                    for s in enumerate_scenarios(reference_session.network, kind)
                ]
            )
        )
    assert body == canonical_body(sweep_payload(result, specs))


def test_sweep_with_explicit_scenarios(base_url, reference_session):
    status, body = _post(
        base_url, "/sweep", {"scenarios": ["link:0-4", "surge:3x2.0"]}
    )
    assert status == 200
    data = json.loads(body)
    assert data["scenarios"] == 2
    assert [o["scenario"] for o in data["outcomes"]] == [
        "link:0-4", "surge:3x2.0",
    ]


# ----------------------------------------------------------------------
# Health, metrics, logging
# ----------------------------------------------------------------------
def test_health(base_url):
    status, body = _get(base_url, "/health")
    assert status == 200
    assert json.loads(body)["status"] == "ok"


def test_metrics_reports_all_components(base_url):
    status, body = _get(base_url, "/metrics")
    assert status == 200
    metrics = json.loads(body)
    assert set(metrics) == {"pool", "scheduler", "plan_cache"}
    assert metrics["scheduler"]["queries"] >= 1
    assert metrics["plan_cache"]["hits"] >= 1  # the repeated round above


def test_metrics_prometheus_negotiation(base_url):
    from repro.obs import parse_prometheus_text

    status, body = _get(base_url, "/metrics?format=prometheus")
    assert status == 200
    families = parse_prometheus_text(body.decode("utf-8"))
    assert "repro_serve_scheduler_events_total" in families
    assert "repro_serve_http_request_seconds" in families
    assert families["repro_serve_http_request_seconds"]["type"] == "histogram"
    # Accept negotiation: text/plain gets Prometheus, default stays JSON.
    request = urllib.request.Request(
        base_url + "/metrics", headers={"Accept": "text/plain"}
    )
    with urllib.request.urlopen(request) as response:
        assert response.headers["Content-Type"].startswith("text/plain")
        parse_prometheus_text(response.read().decode("utf-8"))
    status, body = _get(base_url, "/metrics")
    assert set(json.loads(body)) == {"pool", "scheduler", "plan_cache"}
    # ?format=json wins over any Accept header.
    request = urllib.request.Request(
        base_url + "/metrics?format=json", headers={"Accept": "text/plain"}
    )
    with urllib.request.urlopen(request) as response:
        assert response.headers["Content-Type"].startswith("application/json")


def test_component_metrics_are_snapshot_consistent(base_url):
    """hits + misses == lookups in any mid-storm snapshot."""

    def storm(i):
        _post(base_url, "/whatif", {"scenario": KIND_QUERIES[i % len(KIND_QUERIES)]})

    with ThreadPoolExecutor(max_workers=8) as executor:
        futures = [executor.submit(storm, i) for i in range(24)]
        for _ in range(20):
            _status, body = _get(base_url, "/metrics")
            metrics = json.loads(body)
            for component in ("pool", "plan_cache"):
                block = metrics[component]
                assert block["hits"] + block["misses"] == block["lookups"], (
                    component, block,
                )
        for future in futures:
            future.result()


def test_jsonl_request_log(tmp_path):
    log = tmp_path / "requests.jsonl"
    service = ServeService(SPEC)
    srv = WhatIfServer(("127.0.0.1", 0), service, log_path=log)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        url = "http://127.0.0.1:%d" % srv.server_address[1]
        _post(url, "/whatif", {"scenario": "node:3"})
        _post(url, "/whatif", {"scenario": "bogus:1"})
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(lines) == 2
    ok, bad = lines
    assert ok["path"] == "/whatif" and ok["status"] == 200
    assert ok["scenario"] == "node:3" and ok["cache_hit"] is False
    assert ok["ms"] > 0
    assert bad["status"] == 400
    assert [line["seq"] for line in lines] == [0, 1]
    assert all(line["method"] == "POST" for line in lines)


def test_request_log_covers_get_endpoints(tmp_path):
    """GET /health and /metrics ride the same timed, logged respond path."""
    log = tmp_path / "requests.jsonl"
    service = ServeService(SPEC)
    srv = WhatIfServer(("127.0.0.1", 0), service, log_path=log)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        url = "http://127.0.0.1:%d" % srv.server_address[1]
        _get(url, "/health")
        _get(url, "/metrics")
        _get(url, "/metrics?format=prometheus")
        _get(url, "/nope")
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    assert [(l["method"], l["path"], l["status"]) for l in lines] == [
        ("GET", "/health", 200),
        ("GET", "/metrics", 200),
        ("GET", "/metrics", 200),
        ("GET", "/nope", 404),
    ]
    assert lines[2]["format"] == "prometheus"
    assert all(l["ms"] >= 0 for l in lines)
    assert [l["seq"] for l in lines] == [0, 1, 2, 3]


def test_request_log_seq_is_gapless_under_concurrency(tmp_path):
    """One persistent handle + lock: no interleaved lines, gapless seq."""
    log = tmp_path / "requests.jsonl"
    service = ServeService(SPEC)
    srv = WhatIfServer(("127.0.0.1", 0), service, log_path=log)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    total = 32
    try:
        url = "http://127.0.0.1:%d" % srv.server_address[1]
        with ThreadPoolExecutor(max_workers=8) as executor:
            list(executor.map(lambda _i: _get(url, "/health"), range(total)))
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(lines) == total  # every line parses: no torn writes
    assert sorted(line["seq"] for line in lines) == list(range(total))


# ----------------------------------------------------------------------
# Error contract
# ----------------------------------------------------------------------
def test_unknown_scenario_kind_is_400_with_registry_listing(base_url):
    status, body = _post(base_url, "/whatif", {"scenario": "bogus:1"})
    assert status == 400
    message = json.loads(body)["error"]
    assert "registered scenario kind names" in message
    assert "link" in message and "srlg" in message


def test_malformed_scenario_is_400_with_syntax(base_url):
    status, body = _post(base_url, "/whatif", {"scenario": "link:zap"})
    assert status == 400
    assert "syntax" in json.loads(body)["error"]


@pytest.mark.parametrize(
    "spec, message",
    (
        ("scale:nan", "scale factor must be finite"),
        ("surge:3xinf", "surge factor must be finite"),
        ("scale:1e308", "scale factor must keep traffic finite"),
    ),
)
def test_non_finite_traffic_factor_is_400_naming_the_factor(base_url, spec, message):
    status, body = _post(base_url, "/whatif", {"scenario": spec})
    assert status == 400
    assert message in json.loads(body)["error"]


def test_missing_scenario_is_400(base_url):
    status, body = _post(base_url, "/whatif", {})
    assert status == 400
    assert "scenario" in json.loads(body)["error"]


def test_unknown_session_field_is_400(base_url):
    status, body = _post(
        base_url, "/whatif", {"scenario": "node:3", "session": {"bogus": 1}}
    )
    assert status == 400
    assert "unknown session spec fields" in json.loads(body)["error"]


def test_fractional_session_weights_are_400(base_url):
    session = {"topology": "isp", "utilization": 0.5, "weights": [2.5] * 70}
    status, body = _post(base_url, "/whatif", {"scenario": "node:3", "session": session})
    assert status == 400
    assert "integers" in json.loads(body)["error"]


def test_malformed_json_is_400(base_url):
    request = urllib.request.Request(
        base_url + "/whatif", data=b"{not json", headers={}
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request)
    assert excinfo.value.code == 400
    assert "malformed JSON" in json.loads(excinfo.value.read())["error"]


def test_negative_content_length_is_400_naming_the_header(server):
    """``rfile.read(-1)`` would read until the client hangs up."""
    with socket.create_connection(server.server_address, timeout=3) as sock:
        sock.sendall(
            b"POST /whatif HTTP/1.1\r\nHost: test\r\nContent-Length: -1\r\n\r\n"
        )
        response = http.client.HTTPResponse(sock)
        response.begin()
        body = response.read()
    assert response.status == 400
    assert "Content-Length" in json.loads(body)["error"]
    assert response.getheader("Connection") == "close"


def test_non_integer_content_length_is_400_naming_the_header(server):
    with socket.create_connection(server.server_address, timeout=3) as sock:
        sock.sendall(
            b"POST /whatif HTTP/1.1\r\nHost: test\r\nContent-Length: abc\r\n\r\n"
        )
        response = http.client.HTTPResponse(sock)
        response.begin()
        body = response.read()
    assert response.status == 400
    assert "Content-Length" in json.loads(body)["error"]


def test_accepted_sockets_have_nodelay(tmp_path):
    """Without TCP_NODELAY a second segment waits for the delayed ACK."""
    seen = []

    class Recording(WhatIfServer):
        def shutdown_request(self, request):
            seen.append(request.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
            super().shutdown_request(request)

    srv = Recording(("127.0.0.1", 0), ServeService(SPEC))
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        assert _get("http://127.0.0.1:%d" % srv.server_address[1], "/health")[0] == 200
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)
    assert seen and all(seen)


def test_a_response_leaves_in_one_send(server, monkeypatch):
    """Status line, headers and body in one write, on a kept-alive
    connection (a second write would wait ~40 ms for the client's
    delayed ACK)."""
    writes = []
    original = socketserver._SocketWriter.write

    def counting(self, data):
        writes.append(len(data))
        return original(self, data)

    monkeypatch.setattr(socketserver._SocketWriter, "write", counting)
    host, port = server.server_address
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        for method, path, body in (
            ("GET", "/health", None),
            ("POST", "/whatif", json.dumps({"scenario": "node:3"})),
        ):
            before = len(writes)
            connection.request(method, path, body=body)
            response = connection.getresponse()
            payload = response.read()
            assert response.status == 200
            assert len(writes) - before == 1, (path, writes[before:])
            assert writes[-1] > len(payload)  # headers and body together
    finally:
        connection.close()


def test_traced_miss_names_its_request_span_in_the_batch_group(tmp_path):
    """The scheduler hop: ``serve.batch_group`` runs on the dispatcher
    thread and records the ``http.request`` span ids it answers."""
    path = tmp_path / "spans.jsonl"
    obs.enable_tracing(path)
    try:
        srv = WhatIfServer(("127.0.0.1", 0), ServeService(SPEC))
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            url = "http://127.0.0.1:%d" % srv.server_address[1]
            assert _post(url, "/whatif", {"scenario": "node:3"})[0] == 200
            assert _post(url, "/whatif", {"scenario": "node:3"})[0] == 200  # a hit
        finally:
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=5)
    finally:
        obs.disable_tracing()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    requests = [
        r for r in records
        if r["name"] == "http.request" and r["attrs"]["path"] == "/whatif"
    ]
    groups = [r for r in records if r["name"] == "serve.batch_group"]
    assert len(requests) == 2
    assert len(groups) == 1  # the hit was answered on its request thread
    (group,) = groups
    assert group["parent"] is None  # its own thread has no open span
    assert group["attrs"]["requests"] == [requests[0]["span"]]
    assert group["thread"] != requests[0]["thread"]


def test_unknown_paths_are_404(base_url):
    assert _get(base_url, "/nope")[0] == 404
    assert _post(base_url, "/nope", {})[0] == 404


def test_empty_sweep_is_400(base_url):
    status, body = _post(base_url, "/sweep", {})
    assert status == 400
    assert "at least one scenario or kind" in json.loads(body)["error"]


def test_session_spec_selects_another_baseline(base_url):
    """A request naming a different spec gets a different (warm) answer."""
    status, body = _post(
        base_url,
        "/whatif",
        {"scenario": "node:3", "session": {"topology": "isp", "utilization": 0.4}},
    )
    assert status == 200
    other = SessionSpec(topology="isp", utilization=0.4).build()
    expected = canonical_body(whatif_payload(other.under_scenario("node:3")))
    assert _served_body_without_envelope(body) == expected


# ----------------------------------------------------------------------
# Scenario spaces over /sweep
# ----------------------------------------------------------------------
def test_space_sweep_bit_identical_to_direct_session(base_url, reference_session):
    """A /sweep space answer equals encoding a direct sweep_space call."""
    from repro.serve import space_payload

    status, body = _post(base_url, "/sweep", {"space": "all-link-1"})
    assert status == 200
    expected = canonical_body(
        space_payload(reference_session.sweep_space("space:all-link-1"))
    )
    assert body == expected


def test_space_sweep_answer_is_streaming_aggregate_only(base_url):
    """Space answers carry the aggregate, never per-scenario outcomes."""
    status, body = _post(
        base_url, "/sweep", {"space": "space:surge-sample:n=8:seed=3"}
    )
    assert status == 200
    data = json.loads(body)
    assert data["space"] == "space:surge-sample:n=8:seed=3"
    assert data["scenarios"] == 8
    assert data["connected"] + data["disconnected"] == 8
    assert "outcomes" not in data
    for metric in ("primary", "secondary", "max_utilization"):
        assert set(data[metric]) == {"worst", "mean", "percentiles", "cvar"}
    # Seeded sampling: the repeat is byte-identical.
    assert _post(
        base_url, "/sweep", {"space": "space:surge-sample:n=8:seed=3"}
    )[1] == body


def test_unknown_space_is_400_with_registry_listing(base_url):
    status, body = _post(base_url, "/sweep", {"space": "space:warp"})
    assert status == 400
    message = json.loads(body)["error"]
    assert "registered scenario space names" in message
    assert "all-link" in message and "surge-sample" in message


def test_malformed_space_is_400_with_syntax_help(base_url):
    status, body = _post(base_url, "/sweep", {"space": "space:all-link-x"})
    assert status == 400
    message = json.loads(body)["error"]
    assert "bad failure size" in message
    assert "syntax" in message


def test_non_string_space_is_400(base_url):
    status, body = _post(base_url, "/sweep", {"space": 7})
    assert status == 400
    assert "'space' must be" in json.loads(body)["error"]


def test_space_is_exclusive_with_scenarios_and_kinds(base_url):
    status, body = _post(
        base_url, "/sweep", {"space": "all-link-1", "kinds": ["link"]}
    )
    assert status == 400
    assert "not both" in json.loads(body)["error"]
