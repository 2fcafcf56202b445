"""Closed-loop load over persistent HTTP/1.1 connections.

One thread per connection; every connection is kept alive for the whole
phase (it is reopened only after a transport error).  Each connection
sends its next request when the previous answer has arrived.  Latency
is timed from the send; ``lag`` is the generator's own gap between an
answer and the next send, which tells a slow server from a slow
generator.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass

#: Seconds a single request may take before it counts as a timeout.
REQUEST_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """What the client saw for one request."""

    index: int
    status: int  # HTTP status; 0 for a transport error or timeout
    latency_ms: float
    body: bytes
    lag_ms: float


@dataclass
class Phase:
    """Every outcome of one measured phase, in request order, plus wall time."""

    outcomes: list[Outcome]
    wall_s: float


class Connection:
    """One keep-alive connection to the gateway."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._conn: http.client.HTTPConnection | None = None

    def request(self, method: str, path: str, body: bytes | None = None):
        """``(status, body)``; ``(0, b"")`` after a transport error."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
            )
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def closed_loop(
    port: int,
    requests: list[tuple[str, dict]],
    connections: int,
    seconds: float,
) -> Phase:
    """Send ``(tenant, payload)`` requests in order until they run out or
    ``seconds`` have passed."""
    # Serialised before the clock starts.
    encoded = [
        (f"/t/{tenant}/translate", json.dumps(payload).encode("utf-8"))
        for tenant, payload in requests
    ]
    outcomes: list[Outcome] = []
    lock = threading.Lock()
    cursor = [0]
    started = time.perf_counter()
    deadline = started + seconds

    def worker() -> None:
        conn = Connection(port)
        free_at = time.perf_counter()
        try:
            while True:
                with lock:
                    index = cursor[0]
                    if index >= len(encoded) or time.perf_counter() >= deadline:
                        return
                    cursor[0] = index + 1
                path, body = encoded[index]
                sent = time.perf_counter()
                status, reply = conn.request("POST", path, body)
                done = time.perf_counter()
                outcomes.append(Outcome(
                    index, status, (done - sent) * 1000.0, reply,
                    (sent - free_at) * 1000.0,
                ))
                free_at = done
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - started
    outcomes.sort(key=lambda outcome: outcome.index)
    return Phase(outcomes, wall_s)
