#!/usr/bin/env python
"""Client for the ``repro serve`` isosurface query service.

Start the server in one terminal::

    python -m repro.cli serve --grid 33 --image 256

then issue queries from another::

    python examples/serve_client.py --isovalue 0.4 --timestep 1 \
        --azimuth 60 --elevation 30 --out frame.ppm
    python examples/serve_client.py --stats
    python examples/serve_client.py --shutdown

The protocol is newline-delimited JSON over TCP (see ``repro.serve``);
frames come back as base64-encoded binary PPM.  Run it twice with the same
parameters to see the warm-pool effect: the first query cold-builds the
pool, the second reports ``warm: true`` and a far lower latency.
"""

import argparse
import base64
import json
import socket
import sys


def request(host: str, port: int, payload: dict, timeout: float = 300.0) -> dict:
    """Send one JSON-lines request and return the decoded response."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(json.dumps(payload).encode() + b"\n")
        with sock.makefile("rb") as fh:
            line = fh.readline()
    if not line:
        raise ConnectionError("server closed the connection without replying")
    return json.loads(line)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642)
    parser.add_argument("--isovalue", type=float, default=None)
    parser.add_argument("--timestep", type=int, default=None)
    parser.add_argument("--azimuth", type=float, default=None,
                        help="camera orbit azimuth (degrees)")
    parser.add_argument("--elevation", type=float, default=None,
                        help="camera orbit elevation (degrees)")
    parser.add_argument("--dataset", default=None, help="scene name")
    parser.add_argument("--trace", action="store_true",
                        help="ask for a per-query trace summary")
    parser.add_argument("--out", default="frame.ppm",
                        help="where to write the rendered frame")
    parser.add_argument("--stats", action="store_true",
                        help="print service statistics instead of querying")
    parser.add_argument("--shutdown", action="store_true",
                        help="ask the server to shut down")
    args = parser.parse_args()

    if args.stats:
        print(json.dumps(request(args.host, args.port, {"cmd": "stats"}),
                         indent=2))
        return 0
    if args.shutdown:
        print(request(args.host, args.port, {"cmd": "shutdown"}))
        return 0

    payload = {"cmd": "query", "trace": args.trace}
    if args.dataset is not None:
        payload["dataset"] = args.dataset
    if args.isovalue is not None:
        payload["isovalue"] = args.isovalue
    if args.timestep is not None:
        payload["timestep"] = args.timestep
    if args.azimuth is not None or args.elevation is not None:
        view = {}
        if args.azimuth is not None:
            view["azimuth"] = args.azimuth
        if args.elevation is not None:
            view["elevation"] = args.elevation
        payload["view"] = view

    response = request(args.host, args.port, payload)
    if not response.get("ok"):
        print(f"query failed: {response.get('error')}", file=sys.stderr)
        return 1
    with open(args.out, "wb") as fh:
        fh.write(base64.b64decode(response.pop("frame_b64")))
    how = "warm" if response["warm"] else "cold"
    chunks = response.get("chunks")  # None: answered from cached tiles
    if chunks:
        how += f", {chunks[0]} of {chunks[1]} chunks needed"
    print(
        f"{response['dataset']} iso={response['isovalue']} "
        f"t={response['timestep']}: {response['active_pixels']} active "
        f"pixels, {response['latency_s'] * 1e3:.1f} ms ({how}) -> {args.out}"
    )
    cache = response.get("cache")
    if cache and cache.get("mode") != "off":
        tiers = " ".join(
            f"{tier}={cache[tier]}"
            for tier in ("triangles", "tiles")
            if tier in cache
        )
        print(
            f"cache: mode={cache['mode']} {tiers} "
            f"saved={cache.get('bytes_saved', 0)}".rstrip()
        )
    if "trace" in response:
        print(f"trace: {response['trace']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
