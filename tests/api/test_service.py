"""End-to-end HTTP service tests: concurrency, SSE, routes, errors.

The acceptance scenario of the service PR lives here: a server on an
ephemeral port receives the same spec from 8 concurrent threads and
must run the engine exactly once while every client gets the same
digest-keyed result.  ``TestKeepAlive`` holds the connection contract:
one kept-alive connection per client thread, reopened when the server
closes it.
"""

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import urlsplit

import pytest

from repro.api import ApiClient, ApiHandler, JobManager, make_server, start_in_thread
from repro.api import server as server_module
from repro.api.client import parse_sse
from repro.api.openapi import openapi_document
from repro.errors import ApiError
from repro.exec.cache import ResultCache
from repro.exec.runner import execute_spec
from repro.exec.spec import ExperimentSpec
from repro.simulation.network import NetworkConfig

from tests.exec.test_spec import UNRUNNABLE_CONFIGS


def make_spec_doc(p=0.5, seed=21, n_cycles=600, label="e2e"):
    spec = ExperimentSpec(
        config=NetworkConfig(
            k=2, n_stages=2, p=p, topology="random", width=16, seed=seed
        ),
        n_cycles=n_cycles,
        label=label,
    )
    return spec, {"spec": spec.to_jsonable()}


@pytest.fixture
def service(tmp_path):
    """A live server on an ephemeral port, with an execution counter."""
    counted = []

    def counting_task(spec):
        counted.append(spec.digest)
        return execute_spec(spec)

    manager = JobManager(
        executors=4, cache=ResultCache(tmp_path / "cache"), task_fn=counting_task
    )
    server = make_server(port=0, manager=manager, quiet=True)
    start_in_thread(server)
    client = ApiClient(f"http://127.0.0.1:{server.port}", timeout=60.0)
    try:
        yield client, manager, counted
    finally:
        client.close()
        server.shutdown()
        server.server_close()


@pytest.fixture
def connections(monkeypatch):
    """Client addresses of the connections servers accept from now on."""
    accepted = []
    setup = ApiHandler.setup

    def counting_setup(handler):
        accepted.append(handler.client_address)
        setup(handler)

    monkeypatch.setattr(ApiHandler, "setup", counting_setup)
    return accepted


class TestConcurrentDedup:
    def test_eight_concurrent_identical_submissions_run_once(self, service):
        client, manager, counted = service
        _, payload = make_spec_doc()
        responses = [None] * 8
        barrier = threading.Barrier(8)

        def submit(i):
            barrier.wait()
            responses[i] = client.submit(payload)

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)

        assert all(r is not None for r in responses)
        digests = {r["runs"][0]["digest"] for r in responses}
        assert len(digests) == 1
        digest = digests.pop()
        # exactly one submission scheduled work; the other seven deduped
        assert sum(1 for r in responses if not r["runs"][0]["cached"]) == 1

        finals = [client.wait(digest, timeout=60) for _ in range(8)]
        assert all(doc["status"] == "done" for doc in finals)
        assert all(doc["digest"] == digest for doc in finals)
        assert {json.dumps(doc["result"], sort_keys=True) for doc in finals}
        assert len({json.dumps(doc["result"], sort_keys=True) for doc in finals}) == 1
        # the engine ran exactly once for all eight clients
        assert counted.count(digest) == 1
        assert manager.executions == 1


class TestSse:
    def test_event_stream_is_well_formed(self, service):
        client, _, _ = service
        _, payload = make_spec_doc(seed=22, label="sse")
        digest = client.submit(payload)["runs"][0]["digest"]
        client.wait(digest, timeout=60)
        events = client.events(digest)
        names = [e["event"] for e in events]
        assert names == ["queued", "running", "completed", "done"]
        for event in events:
            assert isinstance(event["data"], dict)
            assert event["data"]["event"] == event["event"]
            assert event["data"]["digest"] == digest[:12]
        assert events[-1]["data"]["status"] == "completed"

    def test_sse_replays_for_finished_jobs(self, service):
        client, _, _ = service
        _, payload = make_spec_doc(seed=23)
        digest = client.submit(payload)["runs"][0]["digest"]
        client.wait(digest, timeout=60)
        first = client.events(digest)
        second = client.events(digest)
        assert [e["event"] for e in first] == [e["event"] for e in second]

    def test_parse_sse_skips_keepalives(self):
        raw = (
            ": keepalive\n\n"
            "event: queued\ndata: {\"event\": \"queued\"}\n\n"
            ": keepalive\n\n"
            "event: done\ndata: {\"event\": \"done\"}\n\n"
        )
        events = list(parse_sse(iter(raw.splitlines(keepends=True))))
        assert [e["event"] for e in events] == ["queued", "done"]


class TestKeepAlive:
    def test_round_trip_rides_one_connection(self, service, connections):
        client, _, _ = service
        _, payload = make_spec_doc(seed=24)
        digest = client.submit(payload)["runs"][0]["digest"]
        assert [e["event"] for e in client.events(digest)][-1] == "done"
        assert client.run(digest)["status"] == "done"
        assert client.submit(payload)["runs"][0]["cached"]
        assert client.wait(digest, timeout=60)["status"] == "done"
        assert len(connections) == 1

    def test_http10_event_stream_ends_when_the_connection_closes(self, service):
        client, _, _ = service
        _, payload = make_spec_doc(seed=25)
        digest = client.submit(payload)["runs"][0]["digest"]
        client.wait(digest, timeout=60)
        url = urlsplit(client.base_url)
        with socket.create_connection((url.hostname, url.port), timeout=10) as sock:
            sock.sendall(f"GET /v1/runs/{digest}/events HTTP/1.0\r\n\r\n".encode())
            raw = b""
            while chunk := sock.recv(65536):  # b"" only once the server closes
                raw += chunk
        head, body = raw.split(b"\r\n\r\n", 1)
        assert b"connection: close" in head.lower()
        assert b"transfer-encoding" not in head.lower()
        events = list(parse_sse(body.decode("utf-8").splitlines(keepends=True)))
        assert [e["event"] for e in events] == ["queued", "running", "completed", "done"]

    def test_client_reconnects_after_connection_close(self, service, connections):
        client, _, _ = service
        assert client.healthz()["status"] == "ok"
        # answered before its body is read, so the server closes the connection
        with pytest.raises(ApiError, match="HTTP 404"):
            client._request("POST", "/v1/nope", body={"spec": {}})
        assert client.healthz()["status"] == "ok"
        assert len(connections) == 2

    def test_client_reconnects_to_a_restarted_server(self, tmp_path, connections):
        def start(port):
            manager = JobManager(executors=1, cache=ResultCache(tmp_path / "cache"))
            server = make_server(port=port, manager=manager, quiet=True)
            start_in_thread(server)
            return server

        server = start(0)
        client = ApiClient(f"http://127.0.0.1:{server.port}", timeout=10.0)
        try:
            assert client.healthz()["status"] == "ok"
            server.shutdown()
            server.server_close()
            server = start(server.port)
            assert client.healthz()["status"] == "ok"
            assert len(connections) == 2
        finally:
            client.close()
            server.shutdown()
            server.server_close()

    def test_wait_deadline_discards_the_part_read_stream(self, tmp_path, monkeypatch):
        # keepalive comments are what let a quiet stream notice the deadline
        monkeypatch.setattr(server_module, "SSE_KEEPALIVE_SECONDS", 0.05)
        gate = threading.Event()

        def gated(spec):
            gate.wait(10.0)
            return execute_spec(spec)

        manager = JobManager(executors=1, cache=ResultCache(tmp_path / "cache"), task_fn=gated)
        server = make_server(port=0, manager=manager, quiet=True)
        start_in_thread(server)
        client = ApiClient(f"http://127.0.0.1:{server.port}", timeout=10.0)
        try:
            digest = client.submit(make_spec_doc(seed=27)[1])["runs"][0]["digest"]
            with pytest.raises(ApiError, match=r"still '(queued|running)' after 0.2s"):
                client.wait(digest, timeout=0.2)
            gate.set()
            assert client.wait(digest, timeout=60)["status"] == "done"
        finally:
            gate.set()
            client.close()
            server.shutdown()
            server.server_close()

    def test_kept_alive_round_trips_do_not_stall(self, service):
        client, _, _ = service
        _, payload = make_spec_doc(seed=26)
        digest = client.submit(payload)["runs"][0]["digest"]
        client.wait(digest, timeout=60)
        start = time.perf_counter()
        for _ in range(50):
            client.submit(payload)
            client.wait(digest, timeout=60)
        elapsed = time.perf_counter() - start
        # Nagle's algorithm against the client's delayed ACK stalls each
        # request about 40 ms; a dedup round trip takes a few ms without.
        assert elapsed < 50 * 0.040 / 2


def read_response(sock) -> http.client.HTTPResponse:
    """One HTTP response off a raw socket, body read."""
    reply = http.client.HTTPResponse(sock)
    reply.begin()
    reply.read()
    return reply


class TestIdleTimeout:
    """A kept-alive connection that sits idle is closed by the server."""

    IDLE = 0.3

    @pytest.fixture(autouse=True)
    def short_idle_timeout(self, monkeypatch):
        assert ApiHandler.timeout is not None  # the shipped handler has one
        monkeypatch.setattr(ApiHandler, "timeout", self.IDLE)

    def connect(self, client):
        url = urlsplit(client.base_url)
        return socket.create_connection((url.hostname, url.port), timeout=10)

    def test_idle_connection_is_closed(self, service):
        client, _, _ = service
        with self.connect(client) as sock:
            start = time.perf_counter()
            assert sock.recv(1) == b""  # the server hung up
            assert self.IDLE * 0.5 < time.perf_counter() - start < 5.0

    def test_requests_inside_the_timeout_are_served(self, service):
        client, _, _ = service
        with self.connect(client) as sock:
            for _ in range(3):  # three idle gaps add up to more than one timeout
                time.sleep(self.IDLE / 2)
                sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: test\r\n\r\n")
                assert read_response(sock).status == 200
            assert sock.recv(1) == b""

    def test_event_stream_outlasting_the_timeout_ends_with_its_terminal_event(
        self, tmp_path
    ):
        gate = threading.Event()

        def gated(spec):
            gate.wait(10.0)
            return execute_spec(spec)

        manager = JobManager(executors=1, cache=ResultCache(tmp_path / "cache"), task_fn=gated)
        server = make_server(port=0, manager=manager, quiet=True)
        start_in_thread(server)
        client = ApiClient(f"http://127.0.0.1:{server.port}", timeout=10.0)
        opener = threading.Timer(4 * self.IDLE, gate.set)
        try:
            digest = client.submit(make_spec_doc(seed=28)[1])["runs"][0]["digest"]
            with self.connect(client) as sock:
                opener.start()
                sock.sendall(
                    f"GET /v1/runs/{digest}/events HTTP/1.1\r\nHost: test\r\n\r\n".encode()
                )
                reply = http.client.HTTPResponse(sock)
                reply.begin()
                body = reply.read().decode("utf-8")  # to the zero-length chunk
            assert gate.is_set()
            events = list(parse_sse(body.splitlines(keepends=True)))
            assert events[-1]["event"] == "done"
        finally:
            opener.cancel()
            gate.set()
            client.close()
            server.shutdown()
            server.server_close()


class TestRoutes:
    def test_healthz_and_stats(self, service):
        client, _, _ = service
        assert client.healthz()["status"] == "ok"
        stats = client.stats()
        assert "jobs" in stats and "executions" in stats

    def test_scenarios_catalogue(self, service):
        client, _, _ = service
        doc = client.scenarios()
        names = [s["name"] for s in doc["sets"]]
        assert "smoke" in names
        smoke = next(s for s in doc["sets"] if s["name"] == "smoke")
        assert smoke["n_scenarios"] == len(smoke["scenarios"])
        assert all(len(s["digest"]) == 64 for s in smoke["scenarios"])

    def test_openapi_served_and_covers_every_route(self, service):
        client, _, _ = service
        doc = client.openapi()
        assert doc == openapi_document()
        assert doc["openapi"].startswith("3.0")
        assert set(doc["paths"]) == {
            "/v1/healthz",
            "/v1/stats",
            "/v1/scenarios",
            "/v1/openapi.json",
            "/v1/runs",
            "/v1/runs/{digest}",
            "/v1/runs/{digest}/events",
        }

    def test_scenario_submission_by_name(self, service):
        client, _, _ = service
        doc = client.submit(
            {"scenario": "smoke", "label": "load-p0.2", "n_cycles": 1200}
        )
        assert doc["count"] == 1
        final = client.wait(doc["runs"][0]["digest"], timeout=60)
        assert final["status"] == "done"


class TestErrors:
    def test_unknown_run_is_404(self, service):
        client, _, _ = service
        with pytest.raises(ApiError, match="HTTP 404"):
            client.run("0" * 64)
        with pytest.raises(ApiError, match="HTTP 404"):
            client.events("0" * 64)

    def test_unknown_scenario_is_404(self, service):
        client, _, _ = service
        with pytest.raises(ApiError, match="HTTP 404"):
            client.submit({"scenario": "no-such-set"})
        with pytest.raises(ApiError, match="HTTP 404"):
            client.submit({"scenario": "smoke", "label": "no-such-label"})

    def test_malformed_submissions_are_400(self, service):
        client, _, _ = service
        for payload in (
            {},
            {"spec": {"config": {}}, "scenario": "smoke"},
            {"spec": "not a dict"},
            {"scenario": "smoke", "n_cycles": -5},
            {"spec": {"no_config": True}},
        ):
            with pytest.raises(ApiError, match="HTTP 400"):
                client.submit(payload)

    def test_malformed_spec_documents_are_400(self, service):
        client, _, _ = service
        doc = make_spec_doc()[1]["spec"]
        size_mix = {"message_size": 2, "sizes": [1, 2], "probabilities": [0.5, 0.5]}
        for spec in (
            {**doc, "n_cycles": "abc"},
            {**doc, "n_cycles": 1.5},
            {**doc, "warmup": "x"},
            {**doc, "config": {**doc["config"], "sizes": 5}},
            {**doc, "config": [1, 2]},
            {**doc, "config": {**doc["config"], **size_mix}},
            {**doc, "config": {**doc["config"], "p": float("nan")}},
            *({**doc, "config": {**doc["config"], **change}}
              for change in UNRUNNABLE_CONFIGS.values()),
            {**doc, "n_cycles": 300},
            {**doc, "n_cycles": 500},
        ):
            with pytest.raises(ApiError, match="HTTP 400"):
                client.submit({"spec": spec})
        assert client.healthz()["status"] == "ok"
        assert client.stats()["n_jobs"] == 0

    def test_invalid_json_body_is_400(self, service):
        client, _, _ = service
        request = urllib.request.Request(
            f"{client.base_url}/v1/runs",
            data=b"{nope",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400

    @pytest.mark.parametrize(
        "path, headers, status",
        [
            ("/v1/nope", {}, 404),
            ("/v1/runs", {"Content-Length": str(server_module.MAX_BODY_BYTES + 1)}, 400),
            ("/v1/runs", {"Content-Length": "abc"}, 400),
        ],
    )
    def test_reply_before_the_body_is_read_closes_the_connection(
        self, service, path, headers, status
    ):
        client, _, _ = service
        body = json.dumps(make_spec_doc()[1]).encode("utf-8")
        conn = http.client.HTTPConnection(urlsplit(client.base_url).netloc, timeout=10)
        try:
            conn.request(
                "POST", path, body=body, headers={"Content-Type": "application/json", **headers}
            )
            reply = conn.getresponse()
            doc = json.loads(reply.read())
            assert reply.status == status
            assert doc["error"]["code"] == ("not_found" if status == 404 else "bad_request")
            assert reply.getheader("Connection") == "close"
            # the unread body must not be parsed as the next request
            conn.request("GET", "/v1/healthz")
            health = conn.getresponse()
            assert health.status == 200
            assert json.loads(health.read())["status"] == "ok"
        finally:
            conn.close()

    def test_unknown_route_is_404(self, service):
        client, _, _ = service
        with pytest.raises(ApiError, match="HTTP 404"):
            client._request("GET", "/v1/definitely-not-a-route")

    def test_queue_overflow_is_429(self, tmp_path):
        gate = threading.Event()

        def slow(spec):
            gate.wait(10.0)
            return execute_spec(spec)

        manager = JobManager(
            executors=1,
            max_queue=1,
            cache=ResultCache(tmp_path / "cache"),
            task_fn=slow,
        )
        server = make_server(port=0, manager=manager, quiet=True)
        start_in_thread(server)
        client = ApiClient(f"http://127.0.0.1:{server.port}", timeout=30.0)
        try:
            docs = [make_spec_doc(seed=200 + i)[1] for i in range(3)]
            client.submit(docs[0])
            # wait until the executor has picked job 0 up, freeing the queue
            deadline_stats = [None]
            for _ in range(500):
                deadline_stats[0] = client.stats()
                if deadline_stats[0]["queue_depth"] == 0:
                    break
                threading.Event().wait(0.01)
            client.submit(docs[1])
            with pytest.raises(ApiError, match="HTTP 429"):
                client.submit(docs[2])
        finally:
            gate.set()
            client.close()
            server.shutdown()
            server.server_close()
