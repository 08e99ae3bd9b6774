"""End-to-end tests for the ``repro serve`` query service.

A real server (asyncio frontend + warm pools) runs in a background thread
on an ephemeral port; tests speak the newline-delimited JSON protocol over
TCP exactly like ``examples/serve_client.py``.
"""

import base64
import json
import multiprocessing
import socket
import threading

import pytest

from repro.serve import QueryService, SceneSpec, ppm_bytes, run_server

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the query service pools need the fork start method",
)

SCENE = SceneSpec(
    "unit", grid=11, timesteps=2, species=2, nchunks=8, nfiles=4, seed=7,
    isovalue=0.35,
)


def _start_server(service, admission_limit=4):
    ready = threading.Event()
    bound = {}

    def _ready(port):
        bound["port"] = port
        ready.set()

    thread = threading.Thread(
        target=run_server,
        kwargs={
            "service": service,
            "port": 0,
            "admission_limit": admission_limit,
            "ready": _ready,
        },
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=30.0), "server did not come up"
    return thread, bound["port"]


def _request(port, payload, timeout=120.0):
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        if isinstance(payload, dict):
            payload = json.dumps(payload).encode()
        s.sendall(payload + b"\n")
        with s.makefile("rb") as fh:
            line = fh.readline()
    assert line, "server closed the connection without replying"
    return json.loads(line)


@pytest.fixture(scope="module")
def server():
    service = QueryService(scenes=[SCENE], width=32, height=32)
    thread, port = _start_server(service)
    yield port
    _request(port, {"cmd": "shutdown"})
    thread.join(timeout=30.0)
    assert not thread.is_alive()


def test_ping(server):
    assert _request(server, {"cmd": "ping"}) == {"ok": True, "pong": True}


def test_cold_then_warm_query(server):
    first = _request(server, {"cmd": "query"})
    assert first["ok"]
    assert first["dataset"] == "unit"
    assert first["warm"] is False
    frame = base64.b64decode(first["frame_b64"])
    assert frame.startswith(b"P6 32 32 255\n")
    assert len(frame) == len(b"P6 32 32 255\n") + 32 * 32 * 3
    assert first["active_pixels"] > 0

    second = _request(server, {"cmd": "query"})
    assert second["ok"]
    assert second["warm"] is True
    assert second["pool_cycle"] >= 2
    # Identical query, identical frame.
    assert second["frame_b64"] == first["frame_b64"]


def test_query_knobs_ride_the_uow(server):
    base = _request(server, {"cmd": "query"})
    moved = _request(
        server,
        {
            "cmd": "query",
            "isovalue": 0.5,
            "timestep": 1,
            "view": {"azimuth": 120, "elevation": 45},
            "trace": True,
        },
    )
    assert moved["ok"]
    assert moved["isovalue"] == 0.5
    assert moved["timestep"] == 1
    assert moved["view"] == {"azimuth": 120.0, "elevation": 45.0}
    assert moved["warm"] is True  # same pool key: knobs don't rebuild
    assert moved["frame_b64"] != base["frame_b64"]
    assert moved["trace"]["events"] > 0


def test_bad_requests_get_error_responses(server):
    assert "bad request" in _request(server, b"this is not json")["error"]
    assert not _request(server, {"cmd": "nope"})["ok"]
    bad_step = _request(server, {"cmd": "query", "timestep": 99})
    assert not bad_step["ok"]
    assert "timestep" in bad_step["error"]
    bad_scene = _request(server, {"cmd": "query", "dataset": "missing"})
    assert not bad_scene["ok"]
    assert "unknown dataset" in bad_scene["error"]


def test_malformed_request_fields_get_error_responses(server):
    """Coercion failures must come back as error responses, not dropped
    connections (bare ValueError/TypeError used to kill the handler), and
    what ``json.loads`` makes of ``Infinity`` / ``1e999`` is a bad request
    like any other, not an ``OverflowError`` counted as a server failure."""
    failed_before = _request(server, {"cmd": "stats"})["stats"]["queries_failed"]
    for raw, needle in [
        (b'{"cmd": "query", "width": 1e999}', "width must be an integer"),
        (b'{"cmd": "query", "timestep": Infinity}', "timestep must be an integer"),
        (b'{"cmd": "query", "height": -Infinity}', "height must be an integer"),
    ]:
        response = _request(server, raw)
        assert response["ok"] is False, raw
        assert needle in response["error"], (raw, response["error"])
    stats = _request(server, {"cmd": "stats"})["stats"]
    assert stats["queries_failed"] == failed_before
    cases = [
        ({"width": "banana"}, "width"),
        ({"width": 0}, "width"),
        ({"height": -3}, "height"),
        ({"height": None}, "height"),
        ({"isovalue": "not-a-number"}, "isovalue"),
        ({"isovalue": float("inf")}, "isovalue"),
        ({"timestep": "two"}, "timestep"),
        ({"view": "sideways"}, "view"),
        ({"view": {"azimuth": "east"}}, "view.azimuth"),
    ]
    for fields, needle in cases:
        response = _request(server, {"cmd": "query", **fields})
        assert response["ok"] is False, fields
        assert needle in response["error"], (fields, response["error"])
    # The connection-level service still works after every rejection.
    assert _request(server, {"cmd": "ping"})["pong"] is True
    good = _request(server, {"cmd": "query"})
    assert good["ok"] is True


@pytest.mark.parametrize(
    "request_fields, needle",
    [
        ({"width": True}, "width must be an integer"),
        ({"timestep": True}, "timestep must be an integer"),
        ({"isovalue": True}, "isovalue must be a number"),
        ({"view": {"azimuth": False}}, "view.azimuth must be a number"),
    ],
    ids=["width", "timestep", "isovalue", "view.azimuth"],
)
def test_json_booleans_are_not_numbers(server, request_fields, needle):
    """Python's ``bool`` is an ``int``: ``true`` used to pass as 1 (a
    1-pixel-wide frame, timestep 1, isovalue 1.0) and ``false`` as 0."""
    response = _request(server, {"cmd": "query", **request_fields})
    assert response["ok"] is False, response.get("error")
    assert needle in response["error"]


def test_internal_error_in_render_gets_a_response_and_is_counted():
    """A non-ReproError from ``render`` used to escape ``run_in_executor``
    and close the client's connection with no response line."""
    service = QueryService(scenes=[SCENE], width=32, height=32)
    render = service.render

    def flaky(request):
        if request.get("isovalue") == 0.123:
            raise RuntimeError("kernel bug")
        return render(request)

    service.render = flaky
    thread, port = _start_server(service)
    try:
        broken = _request(port, {"cmd": "query", "isovalue": 0.123})
        assert broken["ok"] is False
        assert "RuntimeError" in broken["error"] and "kernel bug" in broken["error"]
        # The next client is served, and the failure shows in the stats.
        assert _request(port, {"cmd": "query"})["ok"] is True
        stats = _request(port, {"cmd": "stats"})["stats"]
        assert stats["queries_failed"] == 1
        assert stats["queries_served"] == 1
    finally:
        _request(port, {"cmd": "shutdown"})
        thread.join(timeout=30.0)
        assert not thread.is_alive()


def test_oversize_request_line_gets_an_error_response(server):
    """A line over asyncio's 64 KiB stream limit raised ValueError from
    ``readline`` outside the handler's ``try``: no response, dead handler."""
    huge = json.dumps({"cmd": "query", "padding": "x" * (200 * 1024)}).encode()
    with socket.create_connection(("127.0.0.1", server), timeout=30.0) as s:
        s.sendall(huge + b"\n" + b'{"cmd": "ping"}\n')
        with s.makefile("rb") as fh:
            response = json.loads(fh.readline())
            assert response["ok"] is False
            assert "bad request" in response["error"]
            # That connection is closed (it cannot resync mid-line), with an
            # orderly EOF: the server reads off what was still in flight ...
            assert fh.readline() == b""
    # ... and only that one: the server answers the next client.
    assert _request(server, {"cmd": "ping"})["pong"] is True


PING_LINE = b'{"ok": true, "pong": true}\n'


def _raw_request(port, payload, then=PING_LINE, timeout=120.0):
    """The response line exactly as it crossed the socket.

    A ping rides behind the request on the same connection: its reply
    arriving intact (``then``) shows the response was that one line and
    not a byte more.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(payload + b'\n{"cmd": "ping"}\n')
        with s.makefile("rb") as fh:
            line = fh.readline()
            assert fh.readline() == then
    assert line.endswith(b"\n") and line.count(b"\n") == 1
    return line


def test_response_lines_are_the_json_of_their_responses():
    """The frame is joined into the line instead of passing through
    ``json.dumps``: every kind of response must still be one line holding
    exactly the JSON value of the dict the server built."""
    service = QueryService(scenes=[SCENE], width=32, height=32)
    built = []

    def recording(method):
        def call(*args):
            built.append(method(*args))
            return built[-1]
        return call

    service.render = recording(service.render)
    service.stats = recording(service.stats)
    thread, port = _start_server(service)
    try:
        odd = 'mi"ss\\ing \u00e9\u4e2d'
        requests = [
            {"cmd": "query", "view": {"azimuth": 45}, "trace": True},
            {"cmd": "query", "dataset": odd},
            {"cmd": "stats"},
            {"cmd": "ping"},
            {"cmd": odd},
        ]
        lines = [_raw_request(port, json.dumps(r).encode()) for r in requests]
        query, error, stats, ping, unknown = map(json.loads, lines)
        assert query == json.loads(json.dumps(built[0]))
        assert query["frame_b64"] == built[0]["frame_b64"]
        assert base64.b64decode(query["frame_b64"]).startswith(b"P6 32 32")
        assert error == {
            "ok": False,
            "error": f"unknown dataset {odd!r}; have ['unit']",
        }
        assert stats == {"ok": True, "stats": json.loads(json.dumps(built[1]))}
        assert ping == {"ok": True, "pong": True}
        assert unknown == {"ok": False, "error": f"unknown cmd {odd!r}"}
        # an over-limit line still gets its one-line error reply, then EOF
        huge = _raw_request(
            port, b'{"padding": "' + b"x" * (200 * 1024) + b'"}', then=b""
        )
        assert "bad request" in json.loads(huge)["error"]
    finally:
        _request(port, {"cmd": "shutdown"})
        thread.join(timeout=30.0)
        assert not thread.is_alive()


def test_rejected_response_is_one_json_line():
    service = QueryService(scenes=[SCENE], width=32, height=32)
    thread, port = _start_server(service, admission_limit=0)
    try:
        line = _raw_request(port, b'{"cmd": "query"}')
        assert json.loads(line) == {
            "ok": False,
            "rejected": True,
            "error": "server busy: 0 queries in flight (admission limit 0)",
        }
    finally:
        _request(port, {"cmd": "shutdown"})
        thread.join(timeout=30.0)
        assert not thread.is_alive()


def test_client_reading_to_eof_gets_eof():
    """Pool workers forked while a connection is open inherit its socket, so
    the server's ``close()`` alone sent no FIN: a client that half-closed
    and read to EOF got its response and then waited forever."""
    service = QueryService(scenes=[SCENE], width=32, height=32)
    thread, port = _start_server(service)
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=15.0) as s:
            s.sendall(b'{"cmd": "query"}\n')  # its pool is forked meanwhile
            s.shutdown(socket.SHUT_WR)
            with s.makefile("rb") as fh:
                data = fh.read()  # to EOF, or socket.timeout
        assert data.endswith(b"\n") and data.count(b"\n") == 1
        response = json.loads(data)
        assert response["ok"] is True and response["warm"] is False
    finally:
        _request(port, {"cmd": "shutdown"})
        thread.join(timeout=30.0)
        assert not thread.is_alive()


def test_stats_counts_queries(server):
    stats = _request(server, {"cmd": "stats"})["stats"]
    assert stats["scenes"] == ["unit"]
    assert stats["queries_served"] >= 2
    # cache off: every served query ran the whole pipeline
    assert stats["served_by"] == {
        "tile_hit": 0, "cold": stats["queries_served"]
    }
    assert len(stats["pools"]) >= 1  # one warm pool per pipeline key
    (pool_stats,) = stats["pools"].values()
    assert pool_stats["cycles_completed"] >= 2


def test_admission_control_rejects_at_limit():
    service = QueryService(scenes=[SCENE], width=32, height=32)
    thread, port = _start_server(service, admission_limit=0)
    try:
        response = _request(port, {"cmd": "query"})
        assert response["ok"] is False
        assert response["rejected"] is True
        assert "admission limit" in response["error"]
    finally:
        _request(port, {"cmd": "shutdown"})
        thread.join(timeout=30.0)


@pytest.mark.parametrize("bad, needle", [
    ({"copies": 0}, "copies must be >= 1"),
    ({"max_inflight": 0}, "max_inflight must be >= 1"),
    ({"policy": "XX"}, "unknown policy"),
    ({"width": 0}, "width must be >= 1"),
    ({"height": 0}, "height must be >= 1"),
    ({"algorithm": "bogus"}, "algorithm must be"),
    ({"scenes": [SceneSpec("empty", timesteps=0)]}, "out of range"),
])
def test_service_whose_default_query_must_fail_does_not_construct(bad, needle):
    """Defaults are request fields nobody sent: a service whose every query
    would be refused — or whose pool could not be built, found only after
    the scene's store was written — is refused at construction."""
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match=needle):
        QueryService(**{"scenes": [SCENE], "width": 32, "height": 32, **bad})


def test_ppm_bytes_header():
    import numpy as np

    image = np.zeros((4, 6, 3), dtype=np.uint8)
    data = ppm_bytes(image)
    assert data.startswith(b"P6 6 4 255\n")
    assert len(data) == len(b"P6 6 4 255\n") + 4 * 6 * 3
