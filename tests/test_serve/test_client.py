"""ServeClient: transport retry with capped exponential backoff and
deterministic per-client jitter, and the typed error each answer maps to."""

import asyncio
import gc
import http.server
import socket
import threading
import time
import warnings

import pytest

from repro.serve import (
    ServeClient,
    ServeConfig,
    ServeError,
    ServeOverloaded,
    ServeUnreachable,
)

_COMPILE = dict(workload="qft", architecture="grid", size=4, approach="sabre")


class TestBackoff:
    def test_deterministic_per_client(self):
        a, b = ServeClient("http://localhost:1", name="w0"), ServeClient(
            "http://localhost:1", name="w0"
        )
        assert [a.backoff_s(i) for i in range(1, 6)] == [
            b.backoff_s(i) for i in range(1, 6)
        ]

    def test_different_clients_get_different_jitter(self):
        a, b = ServeClient("http://localhost:1", name="w0"), ServeClient(
            "http://localhost:1", name="w1"
        )
        assert [a.backoff_s(i) for i in range(1, 6)] != [
            b.backoff_s(i) for i in range(1, 6)
        ]

    def test_exponential_then_capped(self):
        client = ServeClient(
            "http://localhost:1", name="w0", backoff_base_s=0.1, backoff_cap_s=1.0
        )
        for attempt, raw in ((1, 0.1), (2, 0.2), (3, 0.4), (20, 1.0)):
            delay = client.backoff_s(attempt)
            assert raw * 0.5 <= delay <= raw  # jitter scales into [0.5, 1.0]


def _client(service, **kwargs) -> ServeClient:
    return ServeClient(f"http://127.0.0.1:{service.port}", **kwargs)


class TestTypedErrors:
    """Each server answer maps to one exception type; only transport
    trouble (and overload, when opted in) is retried."""

    def test_queue_full_raises_overloaded_429_with_retry_after(self, run_service):
        async def scenario(service):
            try:
                await asyncio.to_thread(_client(service).compile, **_COMPILE, seed=1)
            except ServeOverloaded as exc:
                return exc

        # max_queue=0: every request that misses the caches is turned away
        exc = run_service(ServeConfig(workers=1, max_queue=0), scenario)
        assert isinstance(exc, ServeOverloaded)
        assert exc.status == 429
        assert exc.retry_after_s >= 1
        assert "queue full" in str(exc)

    def test_draining_raises_overloaded_503(self, run_service):
        async def scenario(service):
            service._draining = True  # the window between SIGTERM and shutdown
            try:
                await asyncio.to_thread(_client(service).compile, **_COMPILE, seed=1)
            except ServeOverloaded as exc:
                return exc

        exc = run_service(ServeConfig(workers=1), scenario)
        assert isinstance(exc, ServeOverloaded)
        assert exc.status == 503
        assert exc.retry_after_s >= 1
        assert "draining" in str(exc)

    def test_retry_overload_waits_out_retry_after(self, run_service):
        def timed_compile(client):
            t0 = time.perf_counter()
            response = client.compile(**_COMPILE, seed=1)
            return response, time.perf_counter() - t0

        async def scenario(service):
            service._draining = True
            client = _client(service, retry_overload=True)
            call = asyncio.ensure_future(asyncio.to_thread(timed_compile, client))
            for _ in range(3000):  # the first answer is a 503
                if service.counters["rejected_503"]:
                    break
                await asyncio.sleep(0.01)
            service._draining = False  # the retry is admitted
            response, wall_s = await call
            return response, wall_s, client.retries, service.config.retry_after_s

        config = ServeConfig(workers=1, prewarm=(("grid", 4),))
        response, wall_s, retries, retry_after_s = run_service(config, scenario)
        assert response.ok and response.cache is None
        assert retries == 1
        assert wall_s >= retry_after_s

    def test_closed_port_is_unreachable_after_max_tries(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        client = ServeClient(
            f"http://127.0.0.1:{port}",
            max_tries=3,
            backoff_base_s=0.001,
            backoff_cap_s=0.001,
        )
        with pytest.raises(ServeUnreachable, match="after 3 tries"):
            client.health()
        assert client.retries == 3  # one per refused attempt


@pytest.fixture
def scripted_server():
    """``scripted_server(status, body, protocol=...) -> (url, paths)``: a
    plain HTTP server answering every GET with one fixed status and JSON
    body, and recording each request path.  Under ``HTTP/1.1`` it keeps
    each connection open after answering, until the client closes it."""

    servers = []

    def _start(status: int, body: bytes, protocol: str = "HTTP/1.0"):
        paths = []

        class Handler(http.server.BaseHTTPRequestHandler):
            protocol_version = protocol

            def do_GET(self):
                paths.append(self.path)
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append((server, thread))
        return f"http://127.0.0.1:{server.server_port}", paths

    yield _start
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestTransport:
    def test_only_plain_http_urls_are_accepted(self):
        for url in ("https://127.0.0.1:8181", "127.0.0.1:8181", "http://"):
            with pytest.raises(ValueError, match="plain HTTP"):
                ServeClient(url)

    def test_base_path_in_the_url_is_kept(self, scripted_server):
        url, paths = scripted_server(200, b'{"status": "ok"}')
        client = ServeClient(url + "/prefix/")
        assert client.health() == {"status": "ok"}
        assert paths == ["/prefix/v1/health"]

    def test_client_closes_a_connection_the_server_keeps_open(self, scripted_server):
        url, _ = scripted_server(200, b'{"status": "ok"}', protocol="HTTP/1.1")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert ServeClient(url).health() == {"status": "ok"}
            gc.collect()
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []

    def test_other_status_raises_serve_error_without_retry(self, scripted_server):
        url, paths = scripted_server(500, b'{"error": "boom"}')
        client = ServeClient(url)
        with pytest.raises(ServeError, match="boom") as info:
            client.stats()
        assert type(info.value) is ServeError
        assert paths == ["/v1/stats"]
        assert client.retries == 0
