"""Loopback chat-completions stub that answers with the offline oracle.

    PYTHONPATH=src python3 perfbench/stub.py

Binds 127.0.0.1 on a free port and prints ``READY <port>`` once it accepts
connections. Each POST is answered with ``OracleBackend``'s completion for
the request's messages, ``50 + 150*u`` ms after the request arrived, where
``u`` is a hash of the body and of how many earlier requests carried the
same body (best-of-n candidates send identical bodies, and a fixed delay
per body would hide a pipelining gain). The oracle's own work falls inside
the delay. The injected delay is reported in the ``X-Stub-Delay-Ms``
header. Responses go out in a single write on a ``TCP_NODELAY`` socket, and
HTTP/1.1 keep-alive works, so loopback timings carry no delayed-ACK stall.
"""

from __future__ import annotations

import hashlib
import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

BASE_DELAY_MS = 50.0
SPREAD_DELAY_MS = 150.0


def injected_delay_ms(body: bytes, count: int) -> float:
    """Delay for the ``count``-th earlier-seen occurrence of ``body``."""
    digest = hashlib.sha256(body + b"#%d" % count).digest()
    u = int.from_bytes(digest[:8], "big") / 2.0**64
    return BASE_DELAY_MS + SPREAD_DELAY_MS * u


class DelaySchedule:
    """Counts earlier requests per body and hands out their delays."""

    def __init__(self):
        self._seen: dict[bytes, int] = {}
        self._lock = threading.Lock()

    def next_delay_ms(self, body: bytes) -> float:
        key = hashlib.sha256(body).digest()
        with self._lock:
            count = self._seen.get(key, 0)
            self._seen[key] = count + 1
        return injected_delay_ms(body, count)


class OracleHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        arrived = time.perf_counter()
        delay_ms = self.server.schedule.next_delay_ms(body)
        status = 200
        try:
            payload = json.loads(body)
            messages = {m["role"]: m["content"] for m in payload["messages"]}
            text = self.server.oracle(self.server.request_type(
                system=messages["system"], user=messages["user"],
                temperature=float(payload.get("temperature", 0.0))))
            data = {"id": "perfbench-stub", "object": "chat.completion",
                    "choices": [{"index": 0, "finish_reason": "stop",
                                 "message": {"role": "assistant", "content": text}}]}
        except (ValueError, KeyError, TypeError) as exc:
            status = 400
            data = {"error": {"message": f"{type(exc).__name__}: {exc}"}}
        raw = json.dumps(data).encode("utf-8")
        head = (f"HTTP/1.1 {status} {'OK' if status == 200 else 'Bad Request'}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(raw)}\r\n"
                f"X-Stub-Delay-Ms: {delay_ms:.3f}\r\n\r\n").encode("ascii")
        remaining = arrived + delay_ms / 1000.0 - time.perf_counter()
        if remaining > 0:
            time.sleep(remaining)
        self.wfile.write(head + raw)

    def log_message(self, *args):
        pass


class StubServer(ThreadingHTTPServer):
    daemon_threads = True
    request_queue_size = 64  # two workers x best-of-n fan-out keep 10 connections open


def make_server(port: int = 0) -> StubServer:
    from bimanual_icl.gateway import ChatRequest, OracleBackend

    server = StubServer(("127.0.0.1", port), OracleHandler)
    server.schedule = DelaySchedule()
    server.oracle = OracleBackend()
    server.request_type = ChatRequest
    return server


def main() -> int:
    server = make_server()
    print(f"READY {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
