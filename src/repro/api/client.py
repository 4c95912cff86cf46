"""A tiny stdlib client for the simulation service.

Used by ``python -m repro submit``, the CI smoke job, and the
end-to-end tests; applications embedding the service in-process should
talk to :class:`~repro.api.jobs.JobManager` directly instead.

Each calling thread sends all of its requests -- POST, the SSE event
stream and GET alike -- over one persistent HTTP/1.1 connection
(:mod:`http.client`), so a ``submit`` and ``wait`` pay for one TCP
connection, not one per request.  HTTP-level failures surface as
:class:`~repro.errors.ApiError` carrying the server's structured error
body when one was sent; so do connection failures.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Dict, Iterator, List, Optional
from urllib.parse import urlsplit

from repro.errors import ApiError

__all__ = ["ApiClient", "parse_sse"]


def parse_sse(lines: Iterator[str]) -> Iterator[Dict[str, Any]]:
    """Decode a Server-Sent-Events byte stream into event dicts.

    Yields ``{"event": name, "data": <decoded JSON>}`` per message;
    comment lines (keepalives) are skipped.  Only the single-``data:``
    framing the server emits is supported.
    """
    name: Optional[str] = None
    data: List[str] = []
    for raw in lines:
        line = raw.rstrip("\n").rstrip("\r")
        if line.startswith(":"):
            continue
        if line.startswith("event:"):
            name = line[len("event:") :].strip()
            continue
        if line.startswith("data:"):
            data.append(line[len("data:") :].strip())
            continue
        if line == "" and (name is not None or data):
            payload = "\n".join(data)
            try:
                decoded: Any = json.loads(payload) if payload else None
            except json.JSONDecodeError:
                decoded = payload
            yield {"event": name or "message", "data": decoded}
            name, data = None, []


class ApiClient:
    """Thin JSON-over-HTTP wrapper around one service base URL.

    Safe to share between threads: each calling thread opens its own
    kept-alive connection on its first request.  A connection whose
    response was not read to the end is dropped; one the server closed
    (``Connection: close``) is reopened by :mod:`http.client` on the
    next request.  :meth:`close` closes every thread's connection.
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._url = urlsplit(self.base_url)
        self._lock = threading.Lock()
        self._connections: Dict[int, http.client.HTTPConnection] = {}

    def close(self) -> None:
        """Close every thread's connection; call it once no request is in flight."""
        with self._lock:
            connections = list(self._connections.values())
            self._connections.clear()
        for conn in connections:
            conn.close()

    # -- plumbing ------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection, created on first use."""
        key = threading.get_ident()
        with self._lock:
            conn = self._connections.get(key)
        if conn is None:
            if self._url.scheme == "http":
                conn = http.client.HTTPConnection(self._url.netloc, timeout=self.timeout)
            elif self._url.scheme == "https":
                conn = http.client.HTTPSConnection(self._url.netloc, timeout=self.timeout)
            else:
                raise ApiError(f"unsupported service URL {self.base_url!r} (need http[s]://)")
            with self._lock:
                self._connections[key] = conn
        return conn

    def _drop(self) -> None:
        """Close and forget the calling thread's connection."""
        with self._lock:
            conn = self._connections.pop(threading.get_ident(), None)
        if conn is not None:
            conn.close()

    def _send(
        self, method: str, path: str, body: Optional[bytes] = None, *, accept: str
    ) -> http.client.HTTPResponse:
        """Send one request; returns the response with its headers read.

        A request that fails on a reused connection before any reply
        arrives (the server closed the idle connection, or restarted) is
        sent once more on a new one.  Every request here may be repeated:
        ``POST /v1/runs`` is idempotent by digest.
        """
        headers = {"Accept": accept}
        if body is not None:
            headers["Content-Type"] = "application/json"
        retried = False
        while True:
            conn = self._connection()
            reused = conn.sock is not None
            try:
                conn.request(method, self._url.path + path, body=body, headers=headers)
                return conn.getresponse()
            except (OSError, http.client.HTTPException) as exc:
                self._drop()
                if retried or not reused or not isinstance(exc, ConnectionError):
                    raise ApiError(f"{method} {self.base_url}{path} failed: {exc}") from exc
                retried = True
            except BaseException:
                self._drop()  # e.g. a path that is not ASCII: the request is half-sent
                raise

    def _read(self, response: http.client.HTTPResponse, method: str, path: str) -> bytes:
        """The whole body; a read that fails drops the part-read connection."""
        try:
            return response.read()
        except (OSError, http.client.HTTPException) as exc:
            raise ApiError(f"{method} {self.base_url}{path} failed: {exc}") from exc
        finally:
            if not response.isclosed():
                self._drop()

    def _raise_for_status(
        self, response: http.client.HTTPResponse, method: str, path: str
    ) -> None:
        if response.status < 400:
            return
        raw = self._read(response, method, path)
        try:
            detail = json.loads(raw).get("error", {}).get("message", "")
        except (ValueError, AttributeError) as exc:
            detail = f"(unparseable error body: {exc!r})"
        raise ApiError(f"{method} {path} -> HTTP {response.status}: {detail or response.reason}")

    def _request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        data = None if body is None else json.dumps(body).encode("utf-8")
        response = self._send(method, path, data, accept="application/json")
        self._raise_for_status(response, method, path)
        try:
            doc = json.loads(self._read(response, method, path))
        except ValueError as exc:
            raise ApiError(f"{method} {path}: response is not JSON ({exc})") from exc
        if not isinstance(doc, dict):
            raise ApiError(f"{method} {path}: expected a JSON object response")
        return doc

    def _stream(self, digest: str, deadline: Optional[float]) -> bytes:
        """A run's raw SSE stream, read to its end or until ``deadline`` passes.

        The deadline is checked as each piece of the stream arrives.  A
        stream it cuts short leaves the connection part-read, so the
        connection is dropped.
        """
        path = f"/v1/runs/{digest}/events"
        response = self._send("GET", path, accept="text/event-stream")
        self._raise_for_status(response, "GET", path)
        pieces: List[bytes] = []
        try:
            while deadline is None or time.monotonic() < deadline:
                piece = response.read1()
                if not piece:
                    break
                pieces.append(piece)
        except (OSError, http.client.HTTPException) as exc:
            raise ApiError(f"GET {self.base_url}{path} failed: {exc}") from exc
        finally:
            if not response.isclosed():
                self._drop()
        return b"".join(pieces)

    # -- endpoints -----------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/healthz")

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/stats")

    def scenarios(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/scenarios")

    def openapi(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/openapi.json")

    def submit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """POST a submission body; returns the ``{count, runs}`` doc."""
        return self._request("POST", "/v1/runs", body=payload)

    def run(self, digest: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/runs/{digest}")

    def events(self, digest: str) -> List[Dict[str, Any]]:
        """Read a run's full SSE stream (blocks until the job ends)."""
        text = self._stream(digest, None).decode("utf-8")
        return list(parse_sse(iter(text.splitlines(keepends=True))))

    def wait(self, digest: str, *, timeout: float = 300.0) -> Dict[str, Any]:
        """Block until a run reaches a terminal state; returns its document.

        Reads the run's event stream to its end, then GETs the run once.
        ``timeout`` is the overall deadline.  It is checked as each piece
        of the stream arrives, so the server's keepalive comments (every
        15 s) bound how late it is noticed.
        """
        self._stream(digest, time.monotonic() + timeout)
        doc = self.run(digest)
        if doc.get("status") not in ("done", "failed"):
            raise ApiError(f"run {digest[:12]} still {doc.get('status')!r} after {timeout}s")
        return doc
