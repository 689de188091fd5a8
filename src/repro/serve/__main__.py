"""CLI entry point: ``python -m repro.serve [--host] [--port] [--workers]``.

Prints one ``listening on http://HOST:PORT`` line once the pool is warm and
the socket is bound (``--port 0`` binds an ephemeral port; tools parse this
line to discover it), then serves until SIGTERM/SIGINT triggers a graceful
drain.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Optional, Tuple

from .server import CompileService, ServeConfig


def _prewarm_target(text: str) -> Tuple[str, int]:
    """Parse one ``KIND:SIZE`` prewarm target (e.g. ``grid:5``)."""

    kind, sep, size = text.partition(":")
    if not sep or not kind:
        raise argparse.ArgumentTypeError(
            f"prewarm target must look like KIND:SIZE (got {text!r})"
        )
    try:
        return kind, int(size)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"prewarm size must be an integer (got {size!r})"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve repro.compile() over HTTP/JSON with warm workers.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8181, help="0 binds an ephemeral port"
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="compile worker processes"
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DB",
        help="ExperimentStore .db backing persistent cache hits",
    )
    parser.add_argument(
        "--lru-size", type=int, default=256, help="in-memory hot entries (0 off)"
    )
    parser.add_argument(
        "--max-batch", type=int, default=8, help="largest per-worker batch"
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="admission cap: in-flight requests beyond this are 429'd",
    )
    parser.add_argument(
        "--timeout-s",
        type=float,
        default=None,
        help="default per-request compile budget (requests may override)",
    )
    parser.add_argument(
        "--prewarm",
        type=_prewarm_target,
        action="append",
        default=None,
        metavar="KIND:SIZE",
        help="topology to warm in every worker (repeatable), e.g. grid:5",
    )
    parser.add_argument(
        "--max-respawns",
        type=int,
        default=None,
        help="worker crash budget (default: 2x workers)",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> ServeConfig:
    return ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        store=args.store,
        lru_size=args.lru_size,
        max_batch=args.max_batch,
        max_queue=args.max_queue,
        default_timeout_s=args.timeout_s,
        prewarm=tuple(args.prewarm or ()),
        max_respawns=args.max_respawns,
    )


async def _serve(config: ServeConfig) -> None:
    service = CompileService(config)
    await service.start()
    service.install_signal_handlers()
    print(
        f"repro.serve listening on http://{config.host}:{service.port} "
        f"(workers={config.workers}, lru={config.lru_size}, "
        f"store={config.store or '-'})",
        flush=True,
    )
    await service.run_until_stopped()
    print("repro.serve drained and stopped", flush=True)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    asyncio.run(_serve(config_from_args(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
