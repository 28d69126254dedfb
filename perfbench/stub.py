"""Loopback chat-completions stub for the http-latency workload.

Run as ``python3 stub.py --table TABLE.json``. It listens on 127.0.0.1 at a
free port, prints the port on its first stdout line and serves until it is
terminated.

Each POST answers with the reply recorded for the prompt's SHA-256 in the
table, after ``LATENCY_S``. Faults are keyed on (prompt digest, attempt
number): a share ``RATE_429`` of prompts gets a 429 and a share
``RATE_503`` a 503 on its first attempt only, so retries repeat exactly
and no prompt ever exhausts the gateway's attempts. A prompt missing from
the table gets a 500.

``POST /reset`` clears the attempt counters and returns the counters of
the period it closes (hits, misses, faults).

The status line, headers and body go out in one write on a socket with
Nagle's algorithm off: written separately, the body waits for the
client's delayed ACK and the workload measures TCP timers instead of the
gateway.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

LATENCY_S = 0.010
RATE_429 = 0.03
RATE_503 = 0.02

_REASONS = {200: "OK", 429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable"}


def prompt_of(body: dict) -> str:
    """The prompt text of a single-user-turn chat-completions request."""
    content = body["messages"][0]["content"]
    if isinstance(content, str):
        return content
    return "".join(part["text"] for part in content if part.get("type") == "text")


def fault_for(digest: str, attempt: int) -> int | None:
    """Status to inject for this (prompt, attempt), or None to answer normally."""
    if attempt != 1:
        return None
    u = int(hashlib.sha256(f"fault:{digest}".encode()).hexdigest()[:8], 16) / 2 ** 32
    if u < RATE_429:
        return 429
    if u < RATE_429 + RATE_503:
        return 503
    return None


class StubState:
    def __init__(self, table: dict[str, str]):
        self.table = table
        self.lock = threading.Lock()
        self.attempts: dict[str, int] = {}
        self.counters = {"hits": 0, "misses": 0, "faults_429": 0, "faults_503": 0}

    def answer(self, prompt: str) -> tuple[int, str | None]:
        digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        with self.lock:
            attempt = self.attempts.get(digest, 0) + 1
            self.attempts[digest] = attempt
            status = fault_for(digest, attempt)
            reply = self.table.get(digest)
            if status is not None:
                self.counters[f"faults_{status}"] += 1
            elif reply is None:
                status = 500
                self.counters["misses"] += 1
            else:
                status = 200
                self.counters["hits"] += 1
        return status, reply

    def reset(self) -> dict:
        with self.lock:
            closed = dict(self.counters)
            self.attempts.clear()
            for key in self.counters:
                self.counters[key] = 0
        return closed


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    state: StubState

    def log_message(self, format, *args):  # noqa: A002 - base class signature
        pass

    def _reply(self, status: int, doc: dict) -> None:
        body = json.dumps(doc, ensure_ascii=False).encode("utf-8")
        head = (f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
        self.wfile.write(head + body)

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        if self.path == "/reset":
            self._reply(200, self.state.reset())
            return
        try:
            prompt = prompt_of(json.loads(raw))
        except (ValueError, KeyError, IndexError, TypeError):
            self._reply(500, {"error": "unreadable request"})
            return
        status, reply = self.state.answer(prompt)
        time.sleep(LATENCY_S)
        if status != 200:
            self._reply(status, {"error": _REASONS[status]})
            return
        self._reply(200, {"choices": [{"index": 0, "message": {
            "role": "assistant", "content": reply}}]})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--table", required=True)
    args = parser.parse_args()
    with open(args.table, encoding="utf-8") as fh:
        table = json.load(fh)

    class BoundHandler(Handler):
        state = StubState(table)

    server = ThreadingHTTPServer(("127.0.0.1", 0), BoundHandler)
    server.daemon_threads = True
    print(server.server_port, flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    sys.exit(main())
