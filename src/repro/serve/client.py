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
honoring it client-side).
"""

from __future__ import annotations

import http.client
import json
import socket
import time
import urllib.error
import urllib.request
import zlib
from typing import Dict, Optional

from .api import API_VERSION, CompileRequest, CompileResponse

__all__ = [
    "ServeClient",
    "ServeError",
    "ServeRequestError",
    "ServeOverloaded",
    "ServeUnreachable",
]

#: exception types treated as transient connection trouble (retried with
#: backoff); HTTP *status* errors are answers and are handled typed.
_TRANSIENT_ERRORS = (
    urllib.error.URLError,
    http.client.HTTPException,
    ConnectionError,
    TimeoutError,
    socket.timeout,
)


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

        self.url = url.rstrip("/")
        self._timeout_s = timeout_s
        self._max_tries = max(1, int(max_tries))
        self._base = backoff_base_s
        self._cap = backoff_cap_s
        self._retry_overload = retry_overload
        self._rng = random.Random(zlib.crc32(name.encode()))
        self.retries = 0  # transient errors survived (for tests/monitoring)

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
                request = urllib.request.Request(
                    self.url + path,
                    data=body,
                    method=method,
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(
                    request, timeout=self._timeout_s
                ) as response:
                    return json.loads(response.read().decode())
            except urllib.error.HTTPError as exc:
                typed = self._status_error(path, exc)
                if typed is None:  # overload with retry_overload=True
                    last_error = ServeOverloaded(exc.code, "overloaded", None)
                    continue
                raise typed
            except _TRANSIENT_ERRORS as exc:
                last_error = exc
                self.retries += 1
        raise ServeUnreachable(
            f"server at {self.url} unreachable after {self._max_tries} "
            f"tries to {path}: {last_error!r}"
        )

    def _status_error(self, path, exc) -> Optional[ServeError]:
        """Typed error for an HTTP status answer (None = retry overload)."""

        try:
            detail = json.loads(exc.read().decode()).get("error", "")
        except (ValueError, OSError):
            detail = ""
        message = detail or f"HTTP {exc.code} {exc.reason}"
        if exc.code in (429, 503):
            retry_after = exc.headers.get("Retry-After")
            retry_after = int(retry_after) if retry_after else None
            if self._retry_overload:
                wait_s = retry_after if retry_after is not None else 0.1
                time.sleep(wait_s)
                self.retries += 1
                return None
            return ServeOverloaded(exc.code, message, retry_after)
        if exc.code == 400:
            return ServeRequestError(message)
        return ServeError(f"server rejected {path}: {message}")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ServeClient({self.url!r}, api_version={API_VERSION!r})"
