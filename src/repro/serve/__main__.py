"""CLI front for the serve server: ``python -m repro.serve``.

Binds the wire and HTTP fronts, warms the fleet, and serves until
SIGINT/SIGTERM (or a client ``shutdown``/``POST /shutdown``) triggers a
graceful drain.  ``--ready-file`` writes a JSON record with the bound
ports once both fronts are listening — the CI smoke job and the tests
use it instead of racing the bind.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import signal
import sys

from repro.serve.server import EXECUTOR_CHOICES, ServeServer


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(
            f"must be at least 1, got {number}")
    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Persistent simulation service: warm fleet, hot "
                    "cache, streaming sweep jobs over wire + HTTP.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: loopback only); "
                             "the wire front unpickles every frame, so "
                             "bind only an interface you trust")
    parser.add_argument("--wire-port", type=int, default=7017,
                        help="wire-front port, 0 for ephemeral "
                             "(default: 7017)")
    parser.add_argument("--http-port", type=int, default=7018,
                        help="HTTP-front port, 0 for ephemeral "
                             "(default: 7018)")
    parser.add_argument("--workers", type=_positive_int, default=None,
                        help="fleet worker processes, at least 1 "
                             "(default: os.cpu_count())")
    parser.add_argument("--max-pending", type=int, default=None,
                        help="admission backpressure: refuse jobs "
                             "with a structured busy reply past this "
                             "many pending (default: unbounded)")
    parser.add_argument("--executor", choices=EXECUTOR_CHOICES,
                        default="fleet",
                        help="execution lane: a persistent worker "
                             "fleet, or serialized in-process "
                             "(default: fleet)")
    parser.add_argument("--grace-s", type=float, default=10.0,
                        help="drain budget on shutdown, seconds "
                             "(default: 10)")
    parser.add_argument("--ready-file", default=None,
                        help="write {pid, wire_port, http_port} JSON "
                             "here once both fronts are bound")
    return parser


async def _amain(args: argparse.Namespace) -> int:
    server = ServeServer(
        workers=args.workers, executor=args.executor, host=args.host,
        wire_port=args.wire_port, http_port=args.http_port,
        max_pending=args.max_pending,
    )
    await server.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(
                signum,
                lambda: asyncio.ensure_future(
                    server.stop(args.grace_s)),
            )
    fleet_note = ""
    if server.fleet is not None:
        fhost, fport = server.fleet.broker.address
        fleet_note = f", fleet broker on {fhost}:{fport}"
    print(f"repro.serve: wire on {args.host}:{server.wire_port}, "
          f"http on {args.host}:{server.http_port} "
          f"(executor={args.executor}){fleet_note}", flush=True)
    if args.ready_file:
        record = {"pid": os.getpid(), "host": args.host,
                  "wire_port": server.wire_port,
                  "http_port": server.http_port}
        with open(args.ready_file, "w") as handle:
            json.dump(record, handle)
            handle.write("\n")
    await server.serve_forever()
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return asyncio.run(_amain(args))
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
