"""``python -m repro.serve`` — run the multi-tenant hindsight query daemon.

Binds the :class:`~repro.service.server.QueryService` on a TCP port or a
Unix socket and serves until SIGTERM/SIGINT, then drains gracefully:
in-flight requests finish (up to ``--drain-seconds``), new ones are
refused with ``SHUTTING_DOWN``, and the process exits 0 on a clean drain
(3 when the drain deadline expired with work still in flight).

The bound address is printed to stdout as the first line (``listening
<addr>``), so scripts can start the daemon on port 0 and scrape the
ephemeral port.  ``--trace-out`` writes the daemon's flight recorder
(spans and metrics) as a telemetry document on exit — CI uploads it as
the service-smoke artifact, and ``python -m repro.trace <file>`` renders
it.

Examples::

    python -m repro.serve --home /tmp/flor-home --port 7461
    python -m repro.serve --socket /tmp/flor.sock --workers 4
    python -m repro.serve --port 0 --telemetry --trace-out service.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import signal
import sys
import threading
from pathlib import Path

from . import telemetry
from .config import get_config
from .exceptions import FlorError
from .service.server import QueryService

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve concurrent hindsight queries from one daemon.")
    parser.add_argument("--home", metavar="DIR",
                        help="Flor home to serve (default: the "
                             "configured home)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="TCP bind host (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP bind port (default 0: ephemeral, "
                             "printed on stdout)")
    parser.add_argument("--socket", metavar="PATH", dest="socket_path",
                        help="serve on a Unix socket instead of TCP")
    parser.add_argument("--workers", type=int, metavar="N",
                        help="replay worker-pool size (default "
                             "FlorConfig.service_workers)")
    parser.add_argument("--queue-size", type=int, metavar="N",
                        help="admission queue bound (default "
                             "FlorConfig.service_queue_size)")
    parser.add_argument("--drain-seconds", type=float, metavar="S",
                        help="graceful-drain budget on SIGTERM (default "
                             "FlorConfig.service_drain_seconds)")
    parser.add_argument("--telemetry", action="store_true",
                        help="turn on the flight recorder for the daemon")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="write the captured telemetry (spans and "
                             "metrics) to FILE as a JSON document on exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides: dict = {}
    if args.home:
        overrides["home"] = Path(args.home)
    if args.telemetry:
        overrides["telemetry"] = True
    config = dataclasses.replace(get_config(), **overrides) \
        if overrides else get_config()

    # Handlers go in BEFORE the readiness banner: anyone scripting this
    # daemon treats the banner as "safe to signal".
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda _sig, _frame: stop.set())

    try:
        service = QueryService(config=config, host=args.host,
                               port=args.port,
                               socket_path=args.socket_path,
                               workers=args.workers,
                               queue_size=args.queue_size).start()
    except (FlorError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    print(f"listening {service.address}", flush=True)

    # The accept loop and every request run on their own threads, so the
    # main thread's only job is to wait for the stop signal and then
    # drive the drain.  The wait must be a timed poll, not a bare
    # ``stop.wait()``: the kernel may deliver a process-directed SIGTERM
    # to any of the worker threads, and the Python-level handler then
    # only runs once the main thread returns to the interpreter loop —
    # which a main thread parked forever in an untimed lock wait never
    # does.
    while not stop.is_set():
        stop.wait(0.2)

    drained = service.shutdown(drain_seconds=args.drain_seconds)
    if args.trace_out:
        Path(args.trace_out).write_text(
            json.dumps(telemetry.current_document()), encoding="utf-8")
    print(f"drained={'clean' if drained else 'timeout'}", flush=True)
    return 0 if drained else 3


if __name__ == "__main__":
    sys.exit(main())
