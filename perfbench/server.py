"""A real ``repro-serve`` process in a pinned environment.

The server is started exactly as a deployment would start it: the
``repro-serve`` entry point (:func:`repro.service.http.serve_main`)
with its default core, worker count and memory cache, plus three
run-local settings — an ephemeral port, a fresh disk-cache directory and
an access-log file.  ``REPRO_CORE``, ``REPRO_WORKERS``, ``REPRO_BACKEND``
and ``REPRO_CACHE_DIR`` are removed from its environment, so a change of
the program's defaults is what the benchmark measures, not whatever the
calling shell happened to export.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional

#: Environment variables that select server behaviour; cleared so the
#: server runs with the program's own defaults.
PINNED_ENV = ("REPRO_CORE", "REPRO_WORKERS", "REPRO_BACKEND", "REPRO_CACHE_DIR")

_ENTRY = (
    "import sys; from repro.service.http import serve_main; "
    "sys.exit(serve_main(sys.argv[1:]))"
)
_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")

BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


class ServerError(RuntimeError):
    """The server could not be started or answered unexpectedly."""


class Server:
    """One ``repro-serve`` process rooted in ``workdir``.

    ``src`` is the checkout's ``src`` directory; the server imports the
    program from there and nowhere else.
    """

    def __init__(self, src: Path, workdir: Path):
        self.src = src
        self.workdir = workdir
        self.access_log = workdir / "access.log"
        self.port = 0
        self._proc: Optional[subprocess.Popen] = None
        self._stderr = None

    def start(self) -> float:
        """Spawn the server; return seconds from spawn until ``/readyz``
        answers 200 (readiness probes the disk cache with a real write)."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
        env["PYTHONPATH"] = str(self.src)
        stderr_path = self.workdir / "server.stderr"
        self._stderr = open(stderr_path, "w", encoding="utf-8")
        argv = [
            sys.executable, "-c", _ENTRY,
            "--host", "127.0.0.1",
            "--port", "0",
            "--cache-dir", str(self.workdir / "cache"),
            "--access-log", str(self.access_log),
        ]
        start = time.perf_counter()
        self._proc = subprocess.Popen(
            argv, env=env, cwd=str(self.workdir),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self._stderr,
        )
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while not self.port:
            self._check_alive(stderr_path)
            match = _LISTENING.search(stderr_path.read_text(encoding="utf-8"))
            if match:
                self.port = int(match.group(1))
            elif time.monotonic() > deadline:
                raise ServerError("server did not report a listening port")
            else:
                time.sleep(0.005)
        while True:
            self._check_alive(stderr_path)
            try:
                status, _ = self.get("/readyz", timeout=5.0)
            except OSError:
                status = 0
            if status == 200:
                return time.perf_counter() - start
            if time.monotonic() > deadline:
                raise ServerError(f"server not ready (last status {status})")
            time.sleep(0.005)

    def _check_alive(self, stderr_path: Path) -> None:
        if self._proc is not None and self._proc.poll() is not None:
            raise ServerError(
                f"server exited with {self._proc.returncode}: "
                + stderr_path.read_text(encoding="utf-8")[-2000:]
            )

    def get(self, path: str, timeout: float = 30.0):
        """One GET on a fresh connection: ``(status, body bytes)``."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def metrics(self) -> Dict[str, Any]:
        """The ``/metrics`` JSON document."""
        status, body = self.get("/metrics")
        if status != 200:
            raise ServerError(f"GET /metrics answered {status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``), in MiB."""
        if self._proc is None:
            raise ServerError("server not started")
        status = Path(f"/proc/{self._proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ServerError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL if the drain hangs;
        always waits for the process to end."""
        proc, self._proc = self._proc, None
        if proc is not None and proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if self._stderr is not None:
            self._stderr.close()
            self._stderr = None

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()
