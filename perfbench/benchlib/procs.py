"""Processes the benchmark starts: environment, the server, peak RSS.

Every process gets ``PYTHONPATH=<checkout>/src``, ``REPRO_SABRE_KERNEL=c``
(a missing kernel build fails the run instead of timing the Python
fallback) and ``TMPDIR`` inside the run's state directory, so nothing is
written outside the checkout.
"""

from __future__ import annotations

import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

SERVE_WORKERS = 2
#: how long a server may take to come up (it prewarms every topology first)
READY_TIMEOUT_S = 120.0
_LISTENING = re.compile(r"listening on (http://\S+:\d+)")


def child_env(root: Path, state: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_SABRE_KERNEL"] = "c"
    env["TMPDIR"] = str(state)
    env.pop("REPRO_CHAOS", None)
    return env


# ---------------------------------------------------------------------------
# /proc helpers
# ---------------------------------------------------------------------------


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as fh:
            data = fh.read()
    except OSError:
        return None
    # comm may contain spaces: fields start after the last ')'
    return data[data.rindex(")") + 2 :].split()


def alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid`` (from a scan of ``/proc``)."""

    parent_of: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                parent_of[int(entry)] = int(fields[1])
    found: List[int] = []
    frontier = [pid]
    while frontier:
        current = frontier.pop()
        kids = [p for p, pp in parent_of.items() if pp == current]
        found.extend(kids)
        frontier.extend(kids)
    return found


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Largest ``VmHWM`` (peak resident set) among ``pids``, in MB."""

    peak_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
        except OSError:
            continue
    return peak_kb / 1024.0


def reap(pids: Sequence[int], timeout_s: float = 10.0) -> None:
    """Wait for ``pids`` (not our children) to end; SIGKILL stragglers."""

    deadline = time.monotonic() + timeout_s
    while any(alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    for pid in pids:
        if alive(pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    deadline = time.monotonic() + 5.0
    while any(alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.05)


# ---------------------------------------------------------------------------
# The compile server
# ---------------------------------------------------------------------------


class Server:
    """One ``python -m repro.serve`` process (with its forked workers)."""

    def __init__(
        self,
        root: Path,
        state: Path,
        db: Path,
        prewarm: Sequence[Tuple[str, int]],
        *,
        trace_dir: Optional[Path] = None,
    ) -> None:
        args = ["--port", "0", "--workers", str(SERVE_WORKERS), "--store", str(db)]
        for kind, size in prewarm:
            args += ["--prewarm", f"{kind}:{size}"]
        if trace_dir is None:
            cmd = [sys.executable, "-m", "repro.serve", *args]
        else:
            script = root / "perfbench" / "serve_traced.py"
            cmd = [sys.executable, str(script), str(trace_dir), *args]
        self.log_path = state / f"server-{db.stem}.log"
        self._log = open(self.log_path, "w", encoding="utf-8")
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd,
            cwd=str(root),
            env=child_env(root, state),
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()
        try:
            self.url = self._wait_listening(READY_TIMEOUT_S)
            self._wait_healthy(READY_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        #: launch until /v1/health answered, in seconds
        self.startup_s = time.perf_counter() - start

    def _read_stdout(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _wait_listening(self, timeout_s: float) -> str:
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"server did not start within {timeout_s:.0f} s")
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise RuntimeError(
                    f"server exited during start-up (code {self.proc.wait()}); "
                    f"see {self.log_path}"
                )
            match = _LISTENING.search(line)
            if match:
                return match.group(1)

    def _wait_healthy(self, timeout_s: float) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            try:
                with urllib.request.urlopen(self.url + "/v1/health", timeout=5) as resp:
                    if resp.status == 200:
                        return
            except (urllib.error.URLError, OSError):
                pass
            time.sleep(0.005)
        raise RuntimeError("server never answered /v1/health")

    def tree(self) -> List[int]:
        return [self.proc.pid, *descendants(self.proc.pid)]

    def stop(self) -> None:
        """SIGTERM (graceful drain), wait, and make sure every worker ended."""

        workers = descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        reap(workers)
        self._reader.join(timeout=5)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()
