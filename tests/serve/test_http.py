"""The stdlib HTTP front-end: routes, status mapping, shutdown."""

import asyncio
import http.client
import json
import statistics
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

import repro.serve.http as http_module
from repro.serve import ServeDaemon, run_server


def _request(url, payload=None):
    """Return ``(http status, decoded JSON body)`` for GET or POST."""
    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    req = urllib.request.Request(url, data=data, headers=headers)
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def test_http_round_trip(config, tmp_path):
    ready = threading.Event()
    url = {}
    result = {}

    def on_ready(server_url):
        url["base"] = server_url
        ready.set()

    def serve():
        result["report"] = run_server(
            config, tmp_path / "state", ready=on_ready
        )

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        assert ready.wait(120), "daemon never became ready"
        base = url["base"]

        code, health = _request(base + "/v1/health")
        assert code == 200
        assert health["seq"] == 0
        assert health["recovered"] is False

        code, schema = _request(base + "/v1/schema")
        assert code == 200
        assert set(schema["commands"]) == {
            "arrive", "scale", "depart", "inject_fault", "snapshot",
        }

        # applied -> 200 with the admission decision verbatim
        code, body = _request(base + "/v1/commands", {
            "kind": "arrive", "chain": "dyn0",
            "spec": "chain dyn0: ACL -> IPv4Fwd", "t_min_mbps": 500.0,
        })
        assert code == 200
        assert body["status"] == "applied"
        assert body["seq"] == 1
        assert body["decision"]["accepted"] is True

        # admission rejection -> 409, still consuming a sequence number
        code, body = _request(base + "/v1/commands", {
            "kind": "arrive", "chain": "dyn0",
            "spec": "chain dyn0: ACL -> IPv4Fwd", "t_min_mbps": 500.0,
        })
        assert code == 409
        assert body["status"] == "rejected"
        assert body["seq"] == 2
        assert body["decision"]["reason"]

        # wire-strictness -> 400 before reaching the daemon
        code, body = _request(base + "/v1/commands", {
            "kind": "arrive", "chain": "x", "spec": "chain x: ACL",
            "t_min_mbps": 1.0, "turbo": True,
        })
        assert code == 400
        assert "unknown fields" in body["error"]

        code, body = _request(base + "/v1/commands", {"kind": "warp"})
        assert code == 400

        # consistent snapshot through the serialized queue
        code, body = _request(base + "/v1/state")
        assert code == 200
        assert body["snapshot"]["seq"] == 2
        assert "dyn0" in {
            c["chain"] for c in body["snapshot"]["active"]
        }

        code, metrics = _request(base + "/v1/metrics")
        assert code == 200
        assert "counters" in metrics

        code, report = _request(base + "/v1/report")
        assert code == 200
        assert report["seq"] == 2

        code, body = _request(base + "/v1/nowhere")
        assert code == 404

        code, body = _request(base + "/v1/shutdown", {})
        assert code == 200
    finally:
        thread.join(timeout=120)
    assert not thread.is_alive()

    final = result["report"]
    assert final.seq == 2
    assert final.accepted == 1
    assert final.rejected == 1


def _journaled(journal):
    """The journal's bytes (none before the first applied command)."""
    return journal.read_bytes() if journal.exists() else b""


@pytest.fixture(scope="module")
def live_daemon(make_config, tmp_path_factory):
    """One live daemon + HTTP front-end for the hostile-body cases: its
    URL and its journal."""
    ready = threading.Event()
    url = {}
    state_dir = tmp_path_factory.mktemp("http") / "state"

    def on_ready(server_url):
        url["base"] = server_url
        ready.set()

    thread = threading.Thread(target=run_server, kwargs=dict(
        config=make_config(), state_dir=state_dir, ready=on_ready,
    ))
    thread.start()
    assert ready.wait(120), "daemon never became ready"
    yield url["base"], state_dir / "journal.jsonl"
    _request(url["base"] + "/v1/shutdown", {})
    thread.join(timeout=120)
    assert not thread.is_alive()


@pytest.fixture(scope="module")
def base_url(live_daemon):
    return live_daemon[0]


_ARRIVE = {"kind": "arrive", "chain": "x", "spec": "chain x: ACL",
           "t_min_mbps": 1.0}
_GOOD_ARRIVE = {"kind": "arrive", "chain": "h",
                "spec": "chain h: ACL -> IPv4Fwd", "t_min_mbps": 500.0}
_NAN = float("nan")

#: id -> a well-formed command whose numbers or spec the core must
#: never see (``json.dumps`` writes NaN and Infinity as bare tokens,
#: which the daemon's ``json.loads`` reads as floats)
HOSTILE = {
    "arrive-nan-floor": {**_GOOD_ARRIVE, "t_min_mbps": _NAN},
    "arrive-infinite-floor": {**_GOOD_ARRIVE, "t_min_mbps": float("inf")},
    "scale-nan-floor": {"kind": "scale", "chain": "enterprise",
                        "t_min_mbps": _NAN},
    "arrive-nan-cap": {**_GOOD_ARRIVE, "t_max_mbps": _NAN},
    "arrive-cap-below-floor": {**_GOOD_ARRIVE, "t_max_mbps": 100.0},
    "scale-cap-below-floor": {"kind": "scale", "chain": "enterprise",
                              "t_min_mbps": 1500.0, "t_max_mbps": 1000.0},
    "arrive-nan-delay": {**_GOOD_ARRIVE, "d_max_us": _NAN},
    "arrive-zero-delay": {**_GOOD_ARRIVE, "d_max_us": 0.0},
    "arrive-negative-delay": {**_GOOD_ARRIVE, "d_max_us": -5.0},
    "arrive-spec-graph-error": {**_GOOD_ARRIVE, "chain": "z",
                                "spec": "chain z: [ACL, ACL] -> IPv4Fwd"},
}

#: id -> (Content-Length header or None for "send none", body bytes)
MALFORMED = {
    "no-length": (None, b""),
    "zero-length": ("0", b""),
    "negative-length": ("-5", b"{}"),
    "non-numeric-length": ("ten", b"{}"),
    "oversized-length": (str((1 << 20) + 1), b"{}"),
    "not-json": ("8", b"not json"),
    "not-utf8": ("2", b"\xff\xfe"),
    "nested-past-the-stack": ("100000", b"[" * 100000),
    "json-null": ("4", b"null"),
    "json-array": ("6", b"[1, 2]"),
    "unknown-kind": (None, json.dumps({"kind": "warp"}).encode()),
    "unknown-field": (None, json.dumps({**_ARRIVE, "turbo": 1}).encode()),
    **{case: (None, json.dumps(command).encode())
       for case, command in HOSTILE.items()},
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_body_is_a_typed_400(live_daemon, case):
    """Whatever a client puts in a command body, it gets a JSON 400 back
    (never a dropped connection), nothing is applied or journaled, and
    the daemon answers the next request."""
    base_url, journal = live_daemon
    journaled = _journaled(journal)
    length, body = MALFORMED[case]
    if length is None and body:
        length = str(len(body))
    address = urllib.parse.urlsplit(base_url)
    conn = http.client.HTTPConnection(
        address.hostname, address.port, timeout=60)
    try:
        conn.putrequest("POST", "/v1/commands")
        if length is not None:
            conn.putheader("Content-Length", length)
        conn.endheaders(body or None)
        response = conn.getresponse()
        answer = json.loads(response.read())
        assert response.status == 400
        assert response.getheader("Connection") == "close"
    finally:
        conn.close()
    assert isinstance(answer["error"], str) and answer["error"]
    assert _journaled(journal) == journaled

    code, health = _request(base_url + "/v1/health")
    assert code == 200
    assert health["seq"] == 0


def test_a_spec_with_a_digit_int_cannot_read_is_a_400(base_url):
    """``²`` is a digit to ``str.isdigit`` but not to ``int``: the arrive
    is refused with a JSON 400 naming the literal, not a dropped
    connection, and a request on a new connection is answered."""
    code, body = _request(base_url + "/v1/commands", {
        **_ARRIVE, "chain": "z9",
        "spec": "chain z9: ACL(rules=²) -> IPv4Fwd",
    })
    assert code == 400
    assert "line 1, col 21: bad number literal '²'" in body["error"]

    code, health = _request(base_url + "/v1/health")
    assert code == 200
    assert health["seq"] == 0


def test_keep_alive_round_trips_are_not_held_by_nagle(base_url):
    """A stock keep-alive client (no TCP_NODELAY, no TCP_QUICKACK) gets
    each answer at once: header and body used to leave as two segments on
    a Nagle socket, and the second waited ≈ 40 ms for a delayed ACK."""
    address = urllib.parse.urlsplit(base_url)
    conn = http.client.HTTPConnection(
        address.hostname, address.port, timeout=60)
    spent = []
    try:
        for _ in range(20):
            started = time.perf_counter()
            conn.request("GET", "/v1/health")
            response = conn.getresponse()
            response.read()
            spent.append((time.perf_counter() - started) * 1e3)
            assert response.status == 200
    finally:
        conn.close()
    assert statistics.median(spent) < 20.0, spent


def test_metrics_render_on_the_daemon_loop_between_commands(base_url,
                                                            monkeypatch):
    """``/v1/metrics`` reads the registry on the daemon's event loop — the
    thread the rack-owner worker applies commands on, and never while it
    does — not on the HTTP handler's thread, where a scrape could read a
    histogram in the middle of a command's fold."""
    threads = {}
    snapshot = ServeDaemon.state_snapshot
    render = http_module.render_json

    def worker_side(daemon):
        threads["worker"] = threading.current_thread()
        return snapshot(daemon)

    def render_side(registry):
        threads["render"] = threading.current_thread()
        threads["loop"] = asyncio.get_running_loop()
        return render(registry)

    monkeypatch.setattr(ServeDaemon, "state_snapshot", worker_side)
    monkeypatch.setattr(http_module, "render_json", render_side)
    assert _request(base_url + "/v1/state")[0] == 200
    code, metrics = _request(base_url + "/v1/metrics")
    assert code == 200 and "histograms" in metrics
    assert threads["render"] is threads["worker"]
    assert threads["render"] is not threading.current_thread()
    assert threads["loop"].is_running()
