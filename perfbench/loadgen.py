"""Closed-loop HTTP/1.1 keep-alive load generator.

Each connection is one client that sends its next request only after
the previous response has arrived.  Request bytes are rendered before
the timed phase and response bodies are kept raw until it ends, so
the generator spends its time blocked in ``recv`` rather than
competing with the service for a core.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional


def render(document: Any) -> bytes:
    """One ``POST /v1/task`` request carrying ``document``."""
    body = json.dumps(document).encode()
    head = (f"POST /v1/task HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: keep-alive\r\n\r\n")
    return head.encode("latin-1") + body


@dataclass
class Sample:
    """One request as the client saw it."""

    index: int
    document: Any
    sent: float
    done: float
    status: int        # HTTP status; 0 for a transport error
    body: bytes

    @property
    def ms(self) -> float:
        """Client-side latency in milliseconds."""
        return (self.done - self.sent) * 1e3

    def response(self) -> Any:
        """The decoded response document (None if it is not JSON)."""
        try:
            return json.loads(self.body)
        except ValueError:
            return None


class _Connection:
    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def exchange(self, request: bytes) -> tuple:
        self.sock.sendall(request)
        status_line = self.rfile.readline()
        if not status_line:
            raise ConnectionError("connection closed")
        status = int(status_line.split(b" ", 2)[1])
        length = 0
        while True:
            line = self.rfile.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        body = self.rfile.read(length)
        if len(body) != length:
            raise ConnectionError("connection closed mid-body")
        return status, body

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


def exchange_all(host: str, port: int, documents: List[Any]) -> List[Sample]:
    """Send ``documents`` one after another on one connection."""
    return run_closed(host, port, iter(documents), 1, lambda i, now: False)


def run_closed(
    host: str,
    port: int,
    documents: Iterator[Any],
    connections: int,
    stop: Callable[[int, float], bool],
) -> List[Sample]:
    """Drive ``connections`` closed-loop clients over one shared stream.

    Before taking request ``i`` a client asks ``stop(i, now)``; once it
    says yes, or the stream ends, no client starts another request.
    Returns every sample in request order.
    """
    lock = threading.Lock()
    samples: List[Sample] = []
    state = {"next": 0, "stopped": False}

    def take() -> Optional[tuple]:
        with lock:
            if state["stopped"]:
                return None
            index = state["next"]
            if stop(index, time.perf_counter()):
                state["stopped"] = True
                return None
            document = next(documents, None)
            if document is None:
                state["stopped"] = True
                return None
            state["next"] = index + 1
            return index, document, render(document)

    def client() -> None:
        conn: Optional[_Connection] = None
        try:
            while True:
                item = take()
                if item is None:
                    return
                index, document, request = item
                sent = time.perf_counter()
                try:
                    if conn is None:
                        conn = _Connection(host, port)
                    status, body = conn.exchange(request)
                except (OSError, ValueError, IndexError):
                    status, body = 0, b""
                    if conn is not None:
                        conn.close()
                    conn = None
                done = time.perf_counter()
                with lock:
                    samples.append(Sample(index, document, sent, done,
                                          status, body))
        finally:
            if conn is not None:
                conn.close()

    threads = [threading.Thread(target=client, daemon=True)
               for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
        if thread.is_alive():
            raise RuntimeError("a load-generator client did not finish")
    samples.sort(key=lambda s: s.index)
    return samples
