"""A persistent HTTP/1.1 client connection and the per-op record.

Each op is timed on the client from just before the request is sent to
just after the last byte of the response body is read.  The client sets
no socket options: it sees the server as any HTTP/1.1 client does.
"""

from __future__ import annotations

import http.client
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

OP_TIMEOUT_S = 60.0


@dataclass
class Op:
    """One attempted request and what the client learned from it."""

    trace_id: str
    conn: int
    start: float  # perf_counter() when the request was sent
    latency_s: float
    status: int  # 0 when the request never got a response
    ok: bool = False
    error: str = ""
    doc: Optional[Dict[str, Any]] = field(default=None, repr=False)


class Connection:
    """One keep-alive connection; reconnects after a failed request."""

    def __init__(self, port: int, index: int):
        self.port = port
        self.index = index
        self._conn: Optional[http.client.HTTPConnection] = None

    def post(self, path: str, body: bytes, trace_id: str) -> Op:
        """POST ``body`` (JSON) and read the whole response."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=OP_TIMEOUT_S
            )
        headers = {"Content-Type": "application/json", "X-Trace-Id": trace_id}
        start = time.perf_counter()
        try:
            self._conn.request("POST", path, body=body, headers=headers)
            response = self._conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            latency = time.perf_counter() - start
            self.close()
            return Op(trace_id, self.index, start, latency, 0,
                      error=f"{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - start
        op = Op(trace_id, self.index, start, latency, response.status)
        if response.status != 200:
            op.error = f"HTTP {response.status}: {data[:200]!r}"
            return op
        try:
            op.doc = json.loads(data)
        except ValueError as exc:
            op.error = f"unparseable response: {exc}"
        return op

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
