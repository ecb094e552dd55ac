"""Open-loop HTTP load generator for ``POST /v1/predict``.

Requests are due on a seeded schedule, whatever the server does; a few
sender threads (at most one connection each) send them in due order.
When every sender is busy the next request waits, and that wait counts:
latency is timed from when a request was *due*, and the delay from due
to send is reported as sender lateness.  The server closes each
connection after its response, so every request opens its own.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

GROWTH_LIMIT_MS = 2.0
"""A phase is invalid when mean lateness in its second half exceeds the
first half's by more than this: the generator (or the server) fell
behind the schedule and kept falling."""


def request_bytes(body: bytes) -> bytes:
    head = (
        "POST /v1/predict HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode() + body


def exchange(port: int, request: bytes, timeout: float) -> tuple:
    """Send one request on a fresh connection; return (status, body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].split()
    status = int(status_line[1]) if len(status_line) >= 2 else -1
    return status, body


@dataclass
class Phase:
    """Outcome of one fixed-rate phase."""

    name: str
    rate: float
    payload_ids: np.ndarray
    due: np.ndarray
    send: np.ndarray
    done: np.ndarray
    status: np.ndarray
    bodies: List[Optional[bytes]]

    @property
    def latency_ms(self) -> np.ndarray:
        return 1e3 * (self.done - self.due)

    @property
    def late_ms(self) -> np.ndarray:
        return 1e3 * (self.send - self.due)

    def late_growth_ms(self) -> float:
        late = self.late_ms
        half = len(late) // 2
        if half == 0:
            return 0.0
        return float(late[half:].mean() - late[:half].mean())

    def keeps_up(self) -> bool:
        return self.late_growth_ms() <= GROWTH_LIMIT_MS

    def throughput(self) -> float:
        """Completed requests per second from the first due time."""
        span = float(self.done.max() - self.due.min())
        return len(self.done) / span if span > 0 else 0.0

    def summary(self) -> dict:
        latency, late = self.latency_ms, self.late_ms
        return {
            "rate": self.rate, "requests": len(latency),
            "p50_ms": float(np.percentile(latency, 50)),
            "p90_ms": float(np.percentile(latency, 90)),
            "p95_ms": float(np.percentile(latency, 95)),
            "p99_ms": float(np.percentile(latency, 99)),
            "late_p95_ms": float(np.percentile(late, 95)),
            "late_max_ms": float(late.max()),
            "late_growth_ms": self.late_growth_ms(),
            "keeps_up": self.keeps_up(),
            "throughput": self.throughput(),
            "non_200": int(np.count_nonzero(self.status != 200)),
        }


def schedule(rate: float, seconds: float, rng: np.random.Generator) -> np.ndarray:
    """``rate * seconds`` due offsets, uniformly scattered and sorted.

    A fixed count (a Poisson process conditioned on its count) keeps
    the offered load exact while arrivals still bunch at random.
    """
    n = max(1, int(round(rate * seconds)))
    return np.sort(rng.uniform(0.0, seconds, size=n))


def run_phase(name: str, port: int, rate: float, offsets: np.ndarray,
              payload_ids: Sequence[int], requests: Sequence[bytes],
              senders: int, timeout: float = 30.0) -> Phase:
    """Send ``requests[payload_ids[i]]`` at ``start + offsets[i]``."""
    n = len(offsets)
    due = np.empty(n)
    send = np.empty(n)
    done = np.empty(n)
    status = np.full(n, -1)
    bodies: List[Optional[bytes]] = [None] * n
    cursor = iter(range(n))
    lock = threading.Lock()
    start = time.perf_counter() + 0.01

    def sender() -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            due[i] = start + offsets[i]
            delay = due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            send[i] = time.perf_counter()
            try:
                status[i], bodies[i] = exchange(port, requests[payload_ids[i]], timeout)
            except OSError:
                status[i] = -1
            done[i] = time.perf_counter()

    threads = [threading.Thread(target=sender, name=f"perfbench-sender-{k}")
               for k in range(senders)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return Phase(name, rate, np.asarray(payload_ids), due, send, done, status, bodies)
