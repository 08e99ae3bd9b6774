"""End-to-end tests for the ``repro serve`` query service.

A real server (asyncio frontend + warm pools) runs in a background thread
on an ephemeral port; tests speak the newline-delimited JSON protocol over
TCP exactly like ``examples/serve_client.py``.
"""

import base64
import json
import multiprocessing
import os
import signal
import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro.serve import QueryService, SceneSpec, ppm_bytes, run_server
from tests.engines.test_crash_drain import shm_ledger  # noqa: F401  (fixture)

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
        (b'{"cmd": "query", "timestep": 1e999}', "timestep must be an integer"),
        (b'{"cmd": "query", "timestep": Infinity}', "timestep must be an integer"),
        (b'{"cmd": "query", "isovalue": -Infinity}', "isovalue must be finite"),
    ]:
        response = _request(server, raw)
        assert response["ok"] is False, raw
        assert needle in response["error"], (raw, response["error"])
    stats = _request(server, {"cmd": "stats"})["stats"]
    assert stats["queries_failed"] == failed_before
    cases = [
        ({"timestep": "banana"}, "timestep"),
        ({"timestep": -1}, "timestep"),
        ({"timestep": None}, "timestep"),
        ({"view": {"elevation": None}}, "view.elevation"),
        ({"isovalue": "not-a-number"}, "isovalue"),
        ({"isovalue": float("inf")}, "isovalue"),
        ({"timestep": "two"}, "timestep"),
        ({"view": "sideways"}, "view"),
        ({"view": {"azimuth": "east"}}, "view.azimuth"),
        ({"view": {"azimut": 60}}, "'azimut'"),
        ({"trace": "false"}, "trace"),
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
        ({"timestep": True}, "timestep must be an integer"),
        ({"isovalue": True}, "isovalue must be a number"),
        ({"view": {"azimuth": False}}, "view.azimuth must be a number"),
    ],
    ids=["timestep", "isovalue", "view.azimuth"],
)
def test_json_booleans_are_not_numbers(server, request_fields, needle):
    """Python's ``bool`` is an ``int``: ``true`` used to pass as 1
    (timestep 1, isovalue 1.0) and ``false`` as 0."""
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


@contextmanager
def _one_query_held(admission_limit=1):
    """A server admitting ``admission_limit`` queries, one of them in flight
    until the block exits; yields its port."""
    service = QueryService(scenes=[SCENE], width=32, height=32)
    entered, release = threading.Event(), threading.Event()

    def held(_request):
        entered.set()
        release.wait(timeout=60.0)
        return {"ok": True}

    service.render = held
    thread, port = _start_server(service, admission_limit=admission_limit)
    holder = threading.Thread(
        target=_request, args=(port, {"cmd": "query"}), daemon=True
    )
    holder.start()
    try:
        assert entered.wait(timeout=30.0)
        yield port
    finally:
        release.set()
        holder.join(timeout=30.0)
        _request(port, {"cmd": "shutdown"})
        thread.join(timeout=30.0)
        assert not thread.is_alive()


def test_rejected_response_is_one_json_line():
    with _one_query_held() as port:
        line = _raw_request(port, b'{"cmd": "query"}')
        assert json.loads(line) == {
            "ok": False,
            "rejected": True,
            "error": "server busy: 1 queries in flight (admission limit 1)",
        }


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
    assert list(stats["pools"]) == ["unit"]  # one warm pool per scene
    assert stats["pools"]["unit"]["cycles_completed"] >= 2


def test_admission_control_rejects_at_limit():
    with _one_query_held() as port:
        response = _request(port, {"cmd": "query"})
        assert response["ok"] is False
        assert response["rejected"] is True
        assert "admission limit" in response["error"]
        assert _request(port, {"cmd": "ping"})["pong"] is True


#: run_server arguments no server could use, the same as `repro serve`
#: flags, and the refusal of each.
UNSERVABLE = [
    ({"admission_limit": 0}, ["--port", "0", "--admission", "0"],
     "admission_limit must be >= 1, got 0"),
    ({"port": 70000}, ["--port", "70000"], "port must be <= 65535, got 70000"),
    ({"port": -1}, ["--port", "-1"], "port must be >= 0, got -1"),
]


def test_admission_limit_below_one_is_refused_before_binding(capsys):
    """A limit of 0 used to start a server that rejected every query, and
    a port above 65535 died with an ``OverflowError`` traceback: each is
    refused before binding, and ``repro serve`` exits 2 with one line."""
    from repro.cli import main
    from repro.errors import ConfigurationError

    for bad, argv, message in UNSERVABLE:
        service = QueryService(scenes=[SCENE], width=32, height=32)
        bound, refused = [], []

        def serve():
            try:
                run_server(service, **{"port": 0, **bad}, ready=bound.append)
            except ConfigurationError as exc:
                refused.append(str(exc))

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        deadline = time.monotonic() + 30.0
        while thread.is_alive() and not bound and time.monotonic() < deadline:
            time.sleep(0.02)
        if bound:  # it listened: stop it before failing
            _request(bound[0], {"cmd": "shutdown"})
        thread.join(timeout=30.0)
        assert not bound
        assert refused == [message]
        capsys.readouterr()
        assert main(["serve", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"cannot serve: {message}\n"
        assert captured.out == ""


@pytest.mark.parametrize("bad, needle", [
    ({"copies": 0}, "copies must be >= 1"),
    ({"max_inflight": 0}, "max_inflight must be >= 1"),
    ({"policy": "XX"}, "unknown policy"),
    ({"width": 0}, "width must be >= 1"),
    ({"height": 0}, "height must be >= 1"),
    ({"algorithm": "bogus"}, "algorithm must be"),
    ({"scenes": [SceneSpec("empty", timesteps=0)]}, "out of range"),
    ({"scene": {"grid": 1}}, "grid must be >= 2, got 1"),
    ({"scene": {"nchunks": 0}}, "nchunks must be >= 1, got 0"),
    ({"scene": {"nfiles": 0}}, "nfiles must be >= 1, got 0"),
    ({"scene": {"species": 0}}, "species must be >= 1, got 0"),
])
def test_service_whose_default_query_must_fail_does_not_construct(bad, needle):
    """Defaults are request fields nobody sent: a service whose every query
    would be refused — or whose pool could not be built, found only after
    the scene's store was written — is refused at construction.  A
    ``scene`` entry changes fields of the scene, which refuses itself."""
    from dataclasses import replace

    from repro.errors import ConfigurationError

    kwargs = {"scenes": [SCENE], "width": 32, "height": 32, **bad}
    with pytest.raises(ConfigurationError, match=needle):
        if "scene" in kwargs:
            kwargs["scenes"] = [replace(SCENE, **kwargs.pop("scene"))]
        QueryService(**kwargs)


def test_ppm_bytes_header():
    import numpy as np

    image = np.zeros((4, 6, 3), dtype=np.uint8)
    data = ppm_bytes(image)
    assert data.startswith(b"P6 6 4 255\n")
    assert len(data) == len(b"P6 6 4 255\n") + 4 * 6 * 3


# -- one warm pool per scene: built, broken, built again -----------------------
def _wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.02)


def _in_threads(count, target):
    """Run ``target`` on ``count`` threads at once; their results, in order."""
    results = [None] * count

    def run(index):
        try:
            results[index] = target()
        except Exception as exc:
            results[index] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    return results


def test_concurrent_first_queries_build_one_pool():
    service = QueryService(scenes=[SCENE], width=32, height=32)
    build, builds = service._build_pool, []

    def counted(scene):
        builds.append(scene.name)
        time.sleep(0.3)  # the others arrive while it builds
        return build(scene)

    service._build_pool = counted
    try:
        responses = _in_threads(4, lambda: service.render({}))
        assert builds == ["unit"]
        assert all(response["ok"] for response in responses), responses
        assert [response["warm"] for response in responses].count(False) == 1
        assert len({response["frame_b64"] for response in responses}) == 1
        assert list(service.stats()["pools"]) == ["unit"]
    finally:
        service.close()


def test_a_failed_build_reaches_every_waiter_and_the_next_query_retries():
    from repro.errors import EngineError

    service = QueryService(scenes=[SCENE], width=32, height=32)
    build, builds, gate = service._build_pool, [], threading.Event()

    def failing(scene):
        builds.append(scene.name)
        assert gate.wait(timeout=30.0)
        raise EngineError("boom")

    service._build_pool = failing
    try:
        release = threading.Timer(0.5, gate.set)  # once all three wait
        release.start()
        outcomes = _in_threads(3, lambda: service.render({}))
        assert [str(outcome) for outcome in outcomes] == ["boom"] * 3
        assert builds == ["unit"]
        assert service.stats()["pools"] == {}
        service._build_pool = build  # the scene is not poisoned
        response = service.render({})
        assert response["ok"] and response["warm"] is False
    finally:
        service.close()


def _break_the_pool(service):
    """Serve one query, then kill a worker of the scene's pool; the first
    response and the broken pool."""
    first = service.render({})
    broken = service._pools["unit"]
    victim = next(iter(broken._copies.procs.values()))
    os.kill(victim.pid, signal.SIGKILL)
    _wait_until(lambda: not broken.usable)
    return first, broken


def test_broken_pool_is_rebuilt_at_the_next_query():
    """A killed worker breaks the scene's pool; the next query builds a new
    one, which serves the same frame and stays warm."""
    service = QueryService(scenes=[SCENE], width=32, height=32)
    try:
        first, broken = _break_the_pool(service)
        rebuilt = service.render({})
        assert rebuilt["ok"] and rebuilt["warm"] is False
        assert rebuilt["frame_b64"] == first["frame_b64"]
        assert service._pools["unit"] is not broken
        assert service.render({})["warm"] is True
        assert list(service.stats()["pools"]) == ["unit"]
    finally:
        service.close()


def test_a_query_does_not_wait_for_a_broken_pool_to_close():
    """The broken pool's close can take up to LEAVE_BOUND: the query that
    rebuilds the scene's pool does not wait for it, and the close still
    happens."""
    service = QueryService(scenes=[SCENE], width=32, height=32)
    release, closed = threading.Event(), threading.Event()
    try:
        first, broken = _break_the_pool(service)
        close = broken.close

        def slow_close():
            release.wait(timeout=30.0)
            close()
            closed.set()

        broken.close = slow_close
        rebuilt = service.render({})
        assert not closed.is_set()  # the query did not wait for the close
        assert rebuilt["warm"] is False
        assert rebuilt["frame_b64"] == first["frame_b64"]
        release.set()
        assert closed.wait(timeout=30.0)
    finally:
        release.set()
        service.close()


def test_broken_pool_is_closed_and_releases_shm(shm_ledger, monkeypatch):
    """A pool whose worker was killed mid-service is closed once the scene's
    pool is rebuilt, and leaves no shared-memory segment behind."""
    from repro.core import buffer

    service = QueryService(scenes=[SCENE], config="R-E-Ra-M", width=32, height=32)
    monkeypatch.setattr(buffer, "OUT_OF_BAND_BYTES", 256)  # every payload in an arena
    try:
        first, broken = _break_the_pool(service)
        assert first["streams"]["E->Ra"][0] > 0
        closed = threading.Event()
        close = broken.close

        def observed_close():
            close()
            closed.set()

        broken.close = observed_close
        assert service.render({})["frame_b64"] == first["frame_b64"]
        assert closed.wait(timeout=30.0)
    finally:
        service.close()
    assert not shm_ledger()


def test_warm_scene_is_not_serialised_behind_another_scenes_cold_build(
    monkeypatch,
):
    """While one scene's store is written and its pool forked, a query on
    a scene already warm runs."""
    from repro.data import DeclusteredStore

    other = SceneSpec("other", grid=11, timesteps=2, nchunks=8, nfiles=4)
    service = QueryService(scenes=[SCENE, other], width=32, height=32)
    write = DeclusteredStore.write
    building, release, built = threading.Event(), threading.Event(), threading.Event()

    def gated(dataset, profile, *args, **kwargs):
        if profile.name == other.name:
            building.set()
            release.wait(timeout=30.0)
        try:
            return write(dataset, profile, *args, **kwargs)
        finally:
            if profile.name == other.name:
                built.set()

    monkeypatch.setattr(DeclusteredStore, "write", gated)
    try:
        assert service.render({})["warm"] is False
        cold = threading.Thread(
            target=service.render, args=({"dataset": "other"},), daemon=True
        )
        cold.start()
        assert building.wait(timeout=30.0)
        warm = service.render({"isovalue": 0.4})
        assert warm["warm"] is True and warm["dataset"] == "unit"
        assert not built.is_set()  # answered while the cold build waited
        release.set()
        cold.join(timeout=60.0)
        assert sorted(service.stats()["pools"]) == ["other", "unit"]
    finally:
        release.set()
        service.close()
