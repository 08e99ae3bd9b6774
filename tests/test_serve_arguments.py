"""``run_server`` serves with the arguments it checked."""

import multiprocessing
import threading

import pytest

from repro.serve import QueryService, run_server
from tests.test_serve import SCENE, _request

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the query service pools need the fork start method",
)


def test_a_string_admission_limit_still_answers_a_query():
    """``admission_limit="1"`` passed the check, then every query compared
    an int with the string and its connection closed without a response."""
    service = QueryService(scenes=[SCENE], width=32, height=32)
    bound = []
    ready = threading.Event()
    thread = threading.Thread(
        target=run_server,
        kwargs={
            "service": service, "port": "0", "admission_limit": "1",
            "ready": lambda port: (bound.append(port), ready.set()),
        },
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=30.0), "server did not come up"
    try:
        response = _request(bound[0], {"cmd": "query"})
        assert response["ok"] is True and response["active_pixels"] > 0
    finally:
        _request(bound[0], {"cmd": "shutdown"})
        thread.join(timeout=30.0)
    assert not thread.is_alive()
