"""A small stdlib HTTP client for the serve daemon.

Used by the test suite and the CI smoke script; also a reasonable example
of talking to the daemon from Python.  Supports both transports:

>>> client = ServeClient("http://127.0.0.1:8752")     # TCP
>>> client = ServeClient("unix:/tmp/repro-serve.sock")  # unix socket
>>> status, payload = client.submit({"requests": [
...     {"kind": "estimate", "strategy": "mct", "d": 3, "k": 100}]})

Every call returns ``(status_code, decoded_json)``; transport failures
raise :class:`~repro.exceptions.ServeError`.

Requests ask for ``Connection: keep-alive``, and each calling thread keeps
its own connection open between calls.  :meth:`ServeClient.close` (or
leaving a ``with ServeClient(...)`` block) closes them all.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from typing import Dict, Optional, Tuple

from repro.exceptions import ServeError


class _UnixHTTPConnection(http.client.HTTPConnection):
    """``http.client`` over an ``AF_UNIX`` socket."""

    def __init__(self, path: str, timeout: float):
        super().__init__("localhost", timeout=timeout)
        self._path = path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        sock.connect(self._path)
        self.sock = sock


class ServeClient:
    """Blocking JSON client for one daemon address.

    Safe to share between threads: each thread talks over its own
    connection, reused from call to call.
    """

    def __init__(self, address: str, timeout: float = 60.0):
        self.timeout = float(timeout)
        address = address.strip()
        if address.startswith("unix:"):
            self._unix_path: Optional[str] = address[len("unix:"):]
            self._host, self._port = "localhost", 0
        else:
            self._unix_path = None
            if address.startswith("http://"):
                address = address[len("http://"):]
            address = address.rstrip("/")
            host, _, port = address.rpartition(":")
            if not host or not port.isdigit():
                raise ServeError(
                    f"cannot parse daemon address {address!r} "
                    '(expected "http://host:port" or "unix:/path.sock")'
                )
            self._host, self._port = host, int(port)
        #: One connection per calling thread, keyed by thread id.
        self._connections: Dict[int, http.client.HTTPConnection] = {}
        self._lock = threading.Lock()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close every thread's connection; a later call opens a new one."""
        with self._lock:
            connections = list(self._connections.values())
            self._connections.clear()
        for connection in connections:
            connection.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection (opened lazily by ``http.client``)."""
        ident = threading.get_ident()
        connection = self._connections.get(ident)
        if connection is None:
            if self._unix_path is not None:
                connection = _UnixHTTPConnection(self._unix_path, self.timeout)
            else:
                connection = http.client.HTTPConnection(
                    self._host, self._port, timeout=self.timeout
                )
            with self._lock:
                self._connections[ident] = connection
        return connection

    def request(
        self,
        method: str,
        path: str,
        payload: Optional[object] = None,
    ) -> Tuple[int, Dict[str, object]]:
        body = None
        headers = {"Connection": "keep-alive"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = self._connection()
        reused = connection.sock is not None
        try:
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
            except (BrokenPipeError, ConnectionResetError):  # and RemoteDisconnected
                if not reused:
                    raise
                # The daemon closed the idle connection (its read deadline or
                # a drain) before answering anything: once more, on a new one.
                connection.close()
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
            text = response.read().decode("utf-8")
            status = response.status
        except (OSError, http.client.HTTPException) as error:
            connection.close()
            raise ServeError(f"daemon request {method} {path} failed: {error}") from error
        try:
            decoded = json.loads(text) if text else {}
        except ValueError as error:
            raise ServeError(
                f"daemon returned non-JSON for {method} {path}: {error}"
            ) from error
        return status, decoded

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def submit(self, spec: object) -> Tuple[int, Dict[str, object]]:
        """POST a workload spec (dict or bare request list)."""
        return self.request("POST", "/v1/workload", spec)

    def metrics(self) -> Tuple[int, Dict[str, object]]:
        return self.request("GET", "/metrics")

    def healthz(self) -> Tuple[int, Dict[str, object]]:
        return self.request("GET", "/healthz")

    def wait_ready(self, deadline: float = 10.0) -> Dict[str, object]:
        """Poll ``/healthz`` until the daemon answers (startup helper)."""
        end = time.monotonic() + deadline
        last_error: Optional[ServeError] = None
        while time.monotonic() < end:
            try:
                status, payload = self.healthz()
            except ServeError as error:
                last_error = error
                time.sleep(0.05)
                continue
            if status == 200:
                return payload
            time.sleep(0.05)
        raise ServeError(
            f"daemon did not become ready within {deadline:g}s: {last_error}"
        )
