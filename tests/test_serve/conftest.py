"""Fixtures for the serve suite: subprocess servers and HTTP helpers."""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


class ServerHandle:
    """One ``python -m repro.serve`` subprocess and its discovered URL."""

    def __init__(self, proc: subprocess.Popen, url: str) -> None:
        self.proc = proc
        self.url = url

    def terminate(self, timeout_s: float = 30.0) -> int:
        """SIGTERM (graceful drain) and return the exit code."""

        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:  # pragma: no cover - bug guard
            self.proc.kill()
            raise


@pytest.fixture
def serve_subprocess():
    """Factory: start a real server subprocess, yield its handle, clean up."""

    started = []

    def _start(*extra_args: str, chaos: str = "", timeout_s: float = 120.0):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        if chaos:
            env["REPRO_CHAOS"] = chaos
        else:
            env.pop("REPRO_CHAOS", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0", *extra_args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        line = proc.stdout.readline()
        match = re.search(r"listening on (http://[\d.]+:\d+)", line)
        if not match:  # pragma: no cover - startup failure diagnostics
            proc.kill()
            raise RuntimeError(f"server failed to start: {line!r}")
        handle = ServerHandle(proc, match.group(1))
        started.append(handle)
        return handle

    yield _start
    for handle in started:
        if handle.proc.poll() is None:
            handle.proc.kill()
            handle.proc.wait(timeout=10)
        handle.proc.stdout.close()


@pytest.fixture
def run_service():
    """``run_service(config, scenario)``: start an in-process
    :class:`~repro.serve.CompileService`, return ``await scenario(service)``
    and always drain the service afterwards."""

    from repro.serve import CompileService

    def _run(config, scenario):
        async def main():
            service = CompileService(config)
            await service.start()
            try:
                return await scenario(service)
            finally:
                await service.stop()

        return asyncio.run(main())

    return _run


@pytest.fixture
def http_post():
    """The raw async POST helper, as a fixture."""

    return post_json


@pytest.fixture
def http_exchange():
    """``await http_exchange(port, request_bytes)``: send raw bytes, return
    (status, body dict, headers dict)."""

    return exchange


async def post_json(port: int, path: str, payload: dict):
    """Raw async HTTP POST; returns (status, body dict, headers dict)."""

    body = json.dumps(payload).encode()
    head = (
        f"POST {path} HTTP/1.1\r\nHost: localhost\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return await exchange(port, head.encode() + body)


async def exchange(port: int, request: bytes):
    """Send ``request`` on a fresh connection, with ``Connection: close``
    added after its request line, and parse the whole answer (read to the
    end of the stream)."""

    line, sep, rest = request.partition(b"\r\n")
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(line + b"\r\nConnection: close" + sep + rest)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):  # pragma: no cover - teardown race
        pass
    header_blob, _, payload_blob = raw.partition(b"\r\n\r\n")
    lines = header_blob.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, json.loads(payload_blob), headers
