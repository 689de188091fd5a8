"""``ServeClient`` -- the typed client of the compilation service.

The client speaks the same :class:`~repro.serve.api.CompileRequest` /
:class:`~repro.serve.api.CompileResponse` schema the server does (one
``api_version``, strict parsing both ways), and its ``compile(**kwargs)``
takes exactly the :func:`repro.compile` keyword surface -- swapping a local
``repro.compile(...)`` call for ``client.compile(...)`` is a one-line
change.

Transport errors are typed: transient connection trouble is retried with
capped exponential backoff and per-client deterministic jitter; a server
that *answered* is never blindly retried -- 400 raises
:class:`ServeRequestError` with the server's did-you-mean message, 429/503
raise :class:`ServeOverloaded` carrying the advisory ``Retry-After`` (the
caller owns its load-shedding policy; ``retry_overload=True`` opts into
honoring it client-side), and any other status raises :class:`ServeError`.

Connections are kept alive: the client holds its idle
:class:`http.client.HTTPConnection` objects, and an exchange takes one (or
dials a new one) and puts it back after the answer, unless the answer said
``Connection: close``.  Exchanges running on several threads at once each
use their own connection, so one client is safe to share across threads.
A kept connection the server has closed meanwhile (idle too long, or a
restart) fails before any answer arrives; the request is then sent again at
once on a fresh connection, which counts as no retry -- every endpoint is
safe to repeat, a compile being a pure function of its request.
``close()``, leaving a ``with ServeClient(...)`` block, or dropping the
client closes the idle connections.  The URL must be ``http://``; a base
path in it prefixes every endpoint.  No proxy is consulted.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import weakref
import zlib
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from .api import API_VERSION, CompileRequest, CompileResponse

__all__ = [
    "ServeClient",
    "ServeError",
    "ServeRequestError",
    "ServeOverloaded",
    "ServeUnreachable",
]

#: exception types treated as transient connection trouble (retried with
#: backoff): refused or reset connections, timeouts, unresolvable hosts and
#: malformed answers; HTTP *status* errors are answers and are handled typed.
_TRANSIENT_ERRORS = (http.client.HTTPException, OSError)

_HEADERS = {"Content-Type": "application/json"}


def _close_all(conns: List[http.client.HTTPConnection], lock) -> None:
    with lock:
        idle, conns[:] = conns[:], []
    for conn in idle:
        conn.close()


class ServeError(RuntimeError):
    """Base class of every serve-client failure."""


class ServeRequestError(ServeError):
    """The server rejected the request as malformed (HTTP 400)."""


class ServeOverloaded(ServeError):
    """The server shed load (HTTP 429) or is draining (HTTP 503)."""

    def __init__(self, status: int, message: str, retry_after_s: Optional[int]):
        super().__init__(message)
        self.status = status
        self.retry_after_s = retry_after_s


class ServeUnreachable(ServeError):
    """The server stayed unreachable through the whole backoff budget."""


class ServeClient:
    """JSON-over-HTTP client for one ``repro.serve`` endpoint."""

    def __init__(
        self,
        url: str,
        *,
        name: str = "client",
        timeout_s: float = 60.0,
        max_tries: int = 5,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 1.0,
        retry_overload: bool = False,
    ) -> None:
        import random  # seeded instance only; never the global generator

        parts = urlsplit(url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(
                f"ServeClient speaks plain HTTP: expected http://HOST[:PORT][/PATH] "
                f"(got {url!r})"
            )
        self.url = url.rstrip("/")
        self._host, self._port = parts.hostname, parts.port
        self._prefix = parts.path.rstrip("/")
        self._timeout_s = timeout_s
        self._max_tries = max(1, int(max_tries))
        self._base = backoff_base_s
        self._cap = backoff_cap_s
        self._retry_overload = retry_overload
        self._rng = random.Random(zlib.crc32(name.encode()))
        self.retries = 0  # transient errors survived (for tests/monitoring)
        self._idle: List[http.client.HTTPConnection] = []
        self._lock = threading.Lock()
        weakref.finalize(self, _close_all, self._idle, self._lock)

    def close(self) -> None:
        """Close the idle connections (the client stays usable)."""

        _close_all(self._idle, self._lock)

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- public surface ----------------------------------------------------
    def compile(self, **kwargs: object) -> CompileResponse:
        """``repro.compile`` kwargs, served remotely.

        Keywords that are :class:`CompileRequest` fields map directly;
        everything else is an approach option (``seed=3``), exactly as with
        ``repro.compile(..., **opts)``.
        """

        fields = {}
        options: Dict[str, object] = {}
        for key, value in kwargs.items():
            if key in CompileRequest._FIELDS and key != "options":
                fields[key] = value
            else:
                options[key] = value
        if options:
            fields["options"] = {**options, **dict(fields.get("options", {}))}
        return self.submit(CompileRequest(**fields))

    def submit(self, request: CompileRequest) -> CompileResponse:
        """Send one request; returns the typed response (or raises)."""

        payload = self._exchange(
            "POST", "/v1/compile", request.to_json().encode()
        )
        return CompileResponse.from_dict(payload)

    def health(self) -> Dict[str, object]:
        return self._exchange("GET", "/v1/health", None)

    def stats(self) -> Dict[str, object]:
        return self._exchange("GET", "/v1/stats", None)

    # -- transport ---------------------------------------------------------
    def backoff_s(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based): capped doubling + jitter."""

        raw = min(self._cap, self._base * (2 ** (attempt - 1)))
        return raw * (0.5 + 0.5 * self._rng.random())

    def _exchange(
        self, method: str, path: str, body: Optional[bytes]
    ) -> Dict[str, object]:
        last_error: Optional[Exception] = None
        for attempt in range(self._max_tries):
            if attempt:
                time.sleep(self.backoff_s(attempt))
            try:
                response, data = self._send(method, self._prefix + path, body)
            except _TRANSIENT_ERRORS as exc:
                last_error = exc
                self.retries += 1
                continue
            if 200 <= response.status < 300:
                return json.loads(data.decode())
            typed = self._status_error(path, response, data)
            if typed is None:  # overload with retry_overload=True
                last_error = ServeOverloaded(response.status, "overloaded", None)
                continue
            raise typed
        raise ServeUnreachable(
            f"server at {self.url} unreachable after {self._max_tries} "
            f"tries to {path}: {last_error!r}"
        )

    def _send(
        self, method: str, url: str, body: Optional[bytes]
    ) -> Tuple[http.client.HTTPResponse, bytes]:
        """One request and its answer, on an idle connection if there is one.

        A kept connection that fails before any answer arrives was closed by
        the server while it sat idle: the request goes again, once, on a
        fresh connection.
        """

        with self._lock:
            conn = self._idle.pop() if self._idle else None
        if conn is not None:
            answer = self._round_trip(conn, method, url, body, kept=True)
            if answer is not None:
                return answer
        conn = http.client.HTTPConnection(
            self._host, self._port, timeout=self._timeout_s
        )
        return self._round_trip(conn, method, url, body, kept=False)

    def _round_trip(self, conn, method, url, body, *, kept: bool):
        """The exchange on ``conn``, which is then kept for the next request
        or closed; ``None`` if the ``kept`` connection failed unanswered."""

        response = None
        try:
            conn.request(method, url, body=body, headers=_HEADERS)
            response = conn.getresponse()
            with response:
                data = response.read()
        except BaseException as exc:
            conn.close()
            if kept and response is None and isinstance(exc, ConnectionError):
                return None
            raise
        if response.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.append(conn)
        return response, data

    def _status_error(self, path, response, data: bytes) -> Optional[ServeError]:
        """Typed error for an HTTP status answer (None = retry overload)."""

        try:
            detail = json.loads(data.decode()).get("error", "")
        except ValueError:
            detail = ""
        status = response.status
        message = detail or f"HTTP {status} {response.reason}"
        if status in (429, 503):
            retry_after = response.getheader("Retry-After")
            retry_after = int(retry_after) if retry_after else None
            if self._retry_overload:
                wait_s = retry_after if retry_after is not None else 0.1
                time.sleep(wait_s)
                self.retries += 1
                return None
            return ServeOverloaded(status, message, retry_after)
        if status == 400:
            return ServeRequestError(message)
        return ServeError(f"server rejected {path}: {message}")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ServeClient({self.url!r}, api_version={API_VERSION!r})"
