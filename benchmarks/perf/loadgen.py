"""Closed-loop TCP load generator for the serve workloads.

The server runs in its own process (:mod:`server`); this module starts
it, opens persistent connections and drives them from one thread each.
A client sends its next request only after the previous response line has
arrived in full, so a slow server receives less load (closed loop; the
client count is the concurrency).  An operation's latency runs from the
socket write to the last byte of the response line; parsing and checking
the response happen after the clock stops.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


class Server:
    """The serve process: spawn, find its port, shut it down."""

    def __init__(self, scene, cache_mb: float):
        self.proc = subprocess.Popen(
            [
                sys.executable, str(HERE / "server.py"),
                "--scene", scene.name, "--cache-mb", str(cache_mb),
            ],
            stdout=subprocess.PIPE,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise RuntimeError(
                f"server exited with code {self.proc.returncode} before "
                f"listening"
            )
        self.port = json.loads(line)["port"]

    def connect(self) -> "Connection":
        return Connection(self.port)

    def stop(self) -> None:
        """Ask for shutdown, then wait; kill only if it does not exit."""
        if self.proc.poll() is None:
            try:
                with self.connect() as conn:
                    conn.call({"cmd": "shutdown"})
            except OSError:
                pass
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Connection:
    """One persistent newline-JSON connection."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb", buffering=1 << 20)

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def call(self, request: dict) -> tuple[float, bytes]:
        """(latency seconds, raw response line) of one request."""
        payload = json.dumps(request).encode() + b"\n"
        t0 = time.perf_counter()
        self.sock.sendall(payload)
        line = self.reader.readline()
        latency = time.perf_counter() - t0
        if not line:
            raise ConnectionError("server closed the connection")
        return latency, line


def frame_digest(response: dict) -> str:
    """Short content hash of a response's frame (identity checks)."""
    return hashlib.blake2b(
        response["frame_b64"].encode(), digest_size=16
    ).hexdigest()


def open_connections(server: Server, clients: int) -> "list[Connection]":
    """``clients`` persistent connections — never more than cores."""
    nproc = os.cpu_count() or 1
    if clients > nproc:
        raise SystemExit(
            f"refusing {clients} client connections on {nproc} cores: the "
            f"load generator would compete with the server it measures"
        )
    return [server.connect() for _ in range(clients)]


def closed_loop(
    connections: "list[Connection]",
    requests: list[dict],
    offset: int,
    keep_frames: "set[int]",
) -> dict:
    """Drive one segment of requests in order, one thread per connection.

    ``requests`` are the operations ``offset``, ``offset + 1``, ... of the
    run; all of them are sent.  Returns per-operation records ``(index,
    latency_s, ok, cached, digest)``, the frames kept for the reference
    comparison, the wall time from the first write to the last response
    and one message per refused or failed response.
    """
    records: list[tuple] = []
    frames: dict[int, str] = {}
    errors: list[str] = []
    lock = threading.Lock()
    cursor = 0

    def client(conn: Connection) -> None:
        nonlocal cursor
        while True:
            with lock:
                if cursor >= len(requests):
                    return
                request, index = requests[cursor], offset + cursor
                cursor += 1
            try:
                latency, line = conn.call(request)
                response = json.loads(line)
            except (OSError, ValueError) as exc:
                with lock:
                    errors.append(f"op {index}: {exc!r}")
                    records.append((index, 0.0, False, False, ""))
                return
            ok = response.get("ok") is True
            digest = frame_digest(response) if ok else ""
            with lock:
                if not ok:
                    errors.append(f"op {index}: {response.get('error')}")
                elif index in keep_frames:
                    frames[index] = response["frame_b64"]
                records.append(
                    (index, latency, ok, bool(response.get("cached")), digest)
                )

    threads = [
        threading.Thread(target=client, args=(conn,)) for conn in connections
    ]
    t_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t_start
    records.sort()
    return {"records": records, "frames": frames, "wall_s": wall, "errors": errors}
