"""The simulation service: HTTP API over the experiment machinery.

:mod:`repro.api` turns the execution layer (:mod:`repro.exec`) into a
long-lived, dependency-free network service:

* :mod:`repro.api.jobs` -- the :class:`JobManager`: digest-keyed job
  dedup, a bounded pending queue (backpressure as
  :class:`~repro.errors.JobQueueFullError` / HTTP 429), executor
  threads delegating to :func:`~repro.exec.runner.run_many`, an event
  log per job, and optional experiment-ledger ingestion.
* :mod:`repro.api.server` -- the stdlib ``http.server`` front end:
  ``POST /v1/runs``, ``GET /v1/runs/{digest}`` and its SSE
  ``/events`` stream, the scenario catalogue, health, stats, and the
  OpenAPI document.
* :mod:`repro.api.openapi` -- the hand-written OpenAPI 3 contract.
* :mod:`repro.api.client` -- a small :mod:`http.client` client that
  keeps one connection alive per calling thread (``python -m repro
  submit`` and the CI smoke job ride it).

Start a service with ``python -m repro serve`` or in-process::

    from repro.api import JobManager, make_server, start_in_thread

    server = make_server(port=0, manager=JobManager(executors=4))
    start_in_thread(server)
    print(f"listening on http://127.0.0.1:{server.port}")
"""

from repro.api.client import ApiClient, parse_sse
from repro.api.jobs import Job, JobManager, result_summary
from repro.api.openapi import API_VERSION, openapi_document
from repro.api.server import (
    ApiHandler,
    ApiServer,
    make_server,
    serve_forever,
    start_in_thread,
)

__all__ = [
    "API_VERSION",
    "ApiClient",
    "ApiHandler",
    "ApiServer",
    "Job",
    "JobManager",
    "make_server",
    "openapi_document",
    "parse_sse",
    "result_summary",
    "serve_forever",
    "start_in_thread",
]
