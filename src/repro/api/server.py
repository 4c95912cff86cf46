"""The HTTP face of the simulation service (stdlib only).

Built on :class:`http.server.ThreadingHTTPServer` -- one thread per
connection, all multiplexed onto the shared :class:`~repro.api.jobs.
JobManager` -- so the service has zero dependencies beyond the Python
standard library.  Connections are kept alive (HTTP/1.1): a client
sends POST, the SSE stream and GET over one of them, the stream framed
with ``Transfer-Encoding: chunked`` so it can end without closing the
connection.  Routes (all under ``/v1``, see :mod:`repro.api.openapi`
for the contract):

========================  =============================================
``POST /v1/runs``         submit an inline spec or a named scenario set
``GET /v1/runs/{d}``      job state / result summary for a digest
``GET /v1/runs/{d}/events``  live progress as Server-Sent Events
``GET /v1/scenarios``     the on-disk scenario library
``GET /v1/openapi.json``  the hand-written OpenAPI 3 document
``GET /v1/healthz``       liveness probe
``GET /v1/stats``         jobs / executions / queue / cache counters
========================  =============================================

Error mapping: malformed submissions (:class:`~repro.errors.ApiError`,
:class:`~repro.errors.ExecutionError`) are 400, unknown digests and
scenario labels 404, a full job queue 429
(:class:`~repro.errors.JobQueueFullError`), anything unexpected 500.
Every error body is ``{"error": {"code", "message"}}``.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Set, Tuple

from repro._version import __version__
from repro.api.jobs import JobManager
from repro.api.openapi import openapi_document
from repro.errors import ApiError, ExecutionError, JobQueueFullError
from repro.exec.scenarios import (
    available_scenario_sets,
    list_scenario_files,
    load_scenario_file,
    scenario_dir,
    scenario_specs,
)
from repro.exec.spec import ExperimentSpec, spec_from_jsonable

__all__ = [
    "ApiServer",
    "ApiHandler",
    "make_server",
    "serve_forever",
    "start_in_thread",
]

#: How long one SSE wait slice lasts before a keepalive comment.
SSE_KEEPALIVE_SECONDS = 15.0

#: Largest request body the server will read (a spec is tiny).
MAX_BODY_BYTES = 1 << 20


class ApiServer(ThreadingHTTPServer):
    """A threading HTTP server carrying the shared job manager."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        manager: JobManager,
        *,
        quiet: bool = False,
    ) -> None:
        self.manager = manager
        self.quiet = quiet
        self._connections: Set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, ApiHandler)

    @property
    def port(self) -> int:
        return int(self.server_address[1])

    def shutdown(self) -> None:  # type: ignore[override]
        super().shutdown()
        self.manager.stop()

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Stop listening and end every kept-alive connection.

        Without this an idle connection outlives the server: its handler
        thread would answer the client's next request from a stopped
        manager instead of letting it reconnect to whatever serves the
        port next.
        """
        super().server_close()
        with self._connections_lock:
            live = list(self._connections)
        for request in live:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # its handler closed it meanwhile


def _submission_specs(doc: Dict[str, Any]) -> List[ExperimentSpec]:
    """Resolve a POST body into the specs it asks for.

    Raises :class:`ApiError` (400) for shape problems and delegates
    spec/scenario validation to the exec layer
    (:class:`~repro.errors.ExecutionError`, also 400 -- except unknown
    scenario labels, which the handler maps to 404).
    """
    if not isinstance(doc, dict):
        raise ApiError("request body must be a JSON object")
    has_spec = "spec" in doc
    has_scenario = "scenario" in doc
    if has_spec == has_scenario:
        raise ApiError("submit exactly one of 'spec' or 'scenario'")
    n_cycles = doc.get("n_cycles")
    if n_cycles is not None and (
        isinstance(n_cycles, bool) or not isinstance(n_cycles, int) or n_cycles < 1
    ):
        raise ApiError(f"n_cycles must be a positive integer, got {n_cycles!r}")
    if has_spec:
        if "label" in doc:
            raise ApiError("'label' only narrows a 'scenario' submission")
        spec_doc = doc["spec"]
        if not isinstance(spec_doc, dict):
            raise ApiError("'spec' must be a JSON object")
        spec = spec_from_jsonable(dict(spec_doc, n_cycles=n_cycles or spec_doc.get("n_cycles")))
        return [spec]
    name = doc["scenario"]
    if not isinstance(name, str) or not name:
        raise ApiError("'scenario' must be a non-empty string")
    specs = scenario_specs(name, n_cycles=n_cycles)
    label = doc.get("label")
    if label is not None:
        chosen = [s for s in specs if s.label == label]
        if not chosen:
            raise ApiError(
                f"scenario set {name!r} has no entry labelled {label!r} "
                f"(labels: {[s.label for s in specs]})",
            )
        return chosen
    return list(specs)


def _scenario_catalogue() -> Dict[str, Any]:
    sets = []
    for name in available_scenario_sets():
        path = list_scenario_files()[name]
        sets.append(load_scenario_file(path).to_jsonable())
    return {
        "scenario_dir": str(scenario_dir()),
        "n_sets": len(sets),
        "sets": sets,
    }


class ApiHandler(BaseHTTPRequestHandler):
    """Request router; all state lives on ``self.server.manager``."""

    protocol_version = "HTTP/1.1"
    server_version = f"repro-api/{__version__}"
    # Kept-alive connections carry each reply as a header write and a body
    # write; with Nagle's algorithm the second waits for the client's
    # delayed ACK of the first (about 40 ms a request).
    disable_nagle_algorithm = True
    server: ApiServer  # narrowed from BaseServer for the type checker
    #: whether the current request's body is still unread on the connection
    _body_unread = False

    # -- plumbing ------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:
        if not self.server.quiet:
            super().log_message(format, *args)

    def parse_request(self) -> bool:
        """Parse the request line and headers, noting whether a body follows."""
        ok = super().parse_request()
        self._body_unread = ok and (
            self.headers.get("Content-Length", "0").strip() != "0"
            or "Transfer-Encoding" in self.headers
        )
        return ok

    def end_headers(self) -> None:
        if self._body_unread and not self.close_connection:
            # the unread body would be parsed as the next request
            self.send_header("Connection", "close")
        super().end_headers()

    def _send_json(self, status: int, doc: Dict[str, Any]) -> None:
        body = json.dumps(doc, indent=2).encode("utf-8") + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, code: str, message: str) -> None:
        self._send_json(status, {"error": {"code": code, "message": message}})

    def _read_body(self) -> Dict[str, Any]:
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            raise ApiError(f"Content-Length must be an integer, got {declared!r}") from None
        if length <= 0:
            raise ApiError("request body required")
        if length > MAX_BODY_BYTES:
            raise ApiError(f"request body too large ({length} bytes)")
        raw = self.rfile.read(length)
        self._body_unread = False
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ApiError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ApiError("request body must be a JSON object")
        return doc

    # -- routing -------------------------------------------------------
    def do_GET(self) -> None:  # http.server dispatches on this exact name
        try:
            self._route_get()
        except ApiError as exc:
            self._send_error_json(404, "not_found", str(exc))
        except BrokenPipeError:
            pass  # client hung up mid-response; nothing to send it
        except Exception as exc:
            self._send_error_json(500, "internal", repr(exc))

    def do_POST(self) -> None:  # http.server dispatches on this exact name
        if self.path.rstrip("/") != "/v1/runs":
            self._send_error_json(404, "not_found", f"no POST route {self.path!r}")
            return
        try:
            doc = self._read_body()
            specs = _submission_specs(doc)
        except JobQueueFullError as exc:
            self._send_error_json(429, "queue_full", str(exc))
            return
        except (ApiError, ExecutionError) as exc:
            status, code = (400, "bad_request")
            if "has no entry labelled" in str(exc) or "unknown scenario set" in str(exc):
                status, code = (404, "not_found")
            self._send_error_json(status, code, str(exc))
            return
        except BrokenPipeError:
            return  # client hung up; the response is unsendable
        except Exception as exc:
            self._send_error_json(500, "internal", repr(exc))
            return
        self._submit(specs)

    def _submit(self, specs: List[ExperimentSpec]) -> None:
        manager = self.server.manager
        runs = []
        try:
            for spec in specs:
                job, enqueued = manager.submit(spec)
                runs.append(
                    {
                        "digest": job.digest,
                        "label": spec.label,
                        "status": job.status,
                        "cached": not enqueued,
                        "url": f"/v1/runs/{job.digest}",
                    }
                )
        except JobQueueFullError as exc:
            # nothing past this point was enqueued; report what was
            self._send_json(
                429,
                {
                    "error": {"code": "queue_full", "message": str(exc)},
                    "accepted": runs,
                },
            )
            return
        self._send_json(202, {"count": len(runs), "runs": runs})

    def _route_get(self) -> None:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/v1/healthz":
            self._send_json(200, {"status": "ok", "version": __version__})
            return
        if path == "/v1/stats":
            self._send_json(200, self.server.manager.stats())
            return
        if path == "/v1/openapi.json":
            self._send_json(200, openapi_document())
            return
        if path == "/v1/scenarios":
            self._send_json(200, _scenario_catalogue())
            return
        parts = [p for p in path.split("/") if p]
        if len(parts) == 3 and parts[0] == "v1" and parts[1] == "runs":
            self._get_run(parts[2])
            return
        if (
            len(parts) == 4
            and parts[0] == "v1"
            and parts[1] == "runs"
            and parts[3] == "events"
        ):
            self._stream_events(parts[2])
            return
        self._send_error_json(404, "not_found", f"no route {self.path!r}")

    def _get_run(self, digest: str) -> None:
        job = self.server.manager.get(digest)
        if job is None:
            self._send_error_json(404, "not_found", f"unknown run {digest!r}")
            return
        self._send_json(200, job.to_jsonable())

    # -- SSE -----------------------------------------------------------
    def _stream_events(self, digest: str) -> None:
        manager = self.server.manager
        if manager.get(digest) is None:
            self._send_error_json(404, "not_found", f"unknown run {digest!r}")
            return
        # HTTP/1.1 frames the stream in chunks, so it ends without closing
        # the connection; HTTP/1.0 has no chunks, and its stream ends when
        # the connection closes.
        chunked = self.request_version == "HTTP/1.1"
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream; charset=utf-8")
        self.send_header("Cache-Control", "no-cache")
        if chunked:
            self.send_header("Transfer-Encoding", "chunked")
        else:
            self.send_header("Connection", "close")
        self.end_headers()
        cursor = 0
        try:
            while True:
                events, done = manager.wait_events(
                    digest, cursor, timeout=SSE_KEEPALIVE_SECONDS
                )
                cursor += len(events)
                text = "".join(
                    f"event: {event.get('event', 'message')}\n"
                    f"data: {json.dumps(event, sort_keys=True)}\n\n"
                    for event in events
                )
                if not events and not done:
                    text = ": keepalive\n\n"
                data = text.encode("utf-8")
                if chunked and data:
                    data = b"%x\r\n%s\r\n" % (len(data), data)
                if chunked and done:
                    data += b"0\r\n\r\n"  # the zero-length chunk ends the stream
                self.wfile.write(data)
                if done:
                    break
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True  # client closed the stream mid-way


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    manager: Optional[JobManager] = None,
    quiet: bool = False,
) -> ApiServer:
    """Bind an :class:`ApiServer` (``port=0`` picks an ephemeral port)."""
    return ApiServer((host, port), manager or JobManager(), quiet=quiet)


def serve_forever(server: ApiServer) -> None:
    """Run the accept loop in the calling thread until interrupted."""
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass  # Ctrl-C is the documented way to stop serving
    finally:
        server.shutdown()
        server.server_close()


def start_in_thread(server: ApiServer) -> threading.Thread:
    """Run the accept loop in a daemon thread (tests, embedding)."""
    thread = threading.Thread(
        target=server.serve_forever, name="repro-api-accept", daemon=True
    )
    thread.start()
    return thread
