"""Sweep worker process: ``python -m repro.experiments.backends.worker``.

Two modes:

* ``--connect HOST:PORT`` — dial the coordinator once, serve jobs over
  that single connection until it says ``shutdown`` (or disappears),
  then exit.  This is how :class:`~.distributed.DistributedBackend`
  spawns localhost lanes.
* ``--serve HOST:PORT [--slots N]`` — a standing worker *agent* for a
  remote host: listen, fork one child per inbound coordinator
  connection (at most ``N`` concurrently), serve, reap.  Start one of
  these per remote machine, then point a lane at it
  (``repro.sweep(..., backend="distributed", lanes="host:port,N")``).

Jobs run through :func:`repro.experiments.sweep.execute_spec`, whose
per-spec timeout is the cooperative deadline the cycle loops poll.
Each job yields exactly one ``result`` frame; the worker never raises
into the socket — failures come back as structured ``RunRecord``s, and
a hard death (crash fault, SIGKILL, OOM) is visible to the coordinator
as EOF on this connection, attributable to exactly the spec it was
running (one spec in flight per connection, always).
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import sys
from typing import Optional, Tuple

from ..sweep import execute_spec
from . import wire


def parse_address(text: str) -> Tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"address must be HOST:PORT, got {text!r}")
    return host, int(port)


def serve_connection(sock: socket.socket, lane: str) -> None:
    """Serve one coordinator connection until shutdown/EOF."""
    wire.send(
        sock,
        {
            "type": "hello",
            "lane": lane,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "version": wire.PROTOCOL_VERSION,
        },
    )
    while True:
        message = wire.recv(sock)
        if message is None or message.get("type") == "shutdown":
            return
        if message.get("type") != "job":  # pragma: no cover - bad peer
            raise wire.WireError(f"unexpected message {message.get('type')!r}")
        record = execute_spec(message["spec"], message.get("timeout"))
        wire.send(sock, {"type": "result", "index": message["index"], "record": record})


def run_connect(address: str, lane: str) -> int:
    host, port = parse_address(address)
    with socket.create_connection((host, port)) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            serve_connection(sock, lane)
        except (ConnectionError, BrokenPipeError, wire.WireError):
            return 1  # coordinator went away mid-conversation
    return 0


def run_serve(address: str, slots: int, lane: str) -> int:  # pragma: no cover
    """Prefork agent mode for remote hosts (exercised manually/CI only)."""
    host, port = parse_address(address)
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((host, port))
    listener.listen(slots)
    print(f"repro worker agent: {slots} slot(s) on {host}:{port}", flush=True)
    children: set = set()

    def reap() -> None:
        while children:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                children.clear()
                return
            if pid == 0:
                return
            children.discard(pid)

    while True:
        reap()
        conn, _peer = listener.accept()
        while len(children) >= slots:  # back-pressure: finish a child first
            os.waitpid(-1, 0)
            reap()
        pid = os.fork()
        if pid == 0:
            listener.close()
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            with conn:
                try:
                    serve_connection(conn, lane)
                except (ConnectionError, BrokenPipeError, wire.WireError):
                    os._exit(1)
            os._exit(0)
        children.add(pid)
        conn.close()


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.backends.worker",
        description="sweep worker process for the distributed backend",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--connect", metavar="HOST:PORT",
                      help="dial a coordinator and serve one connection")
    mode.add_argument("--serve", metavar="HOST:PORT",
                      help="standing agent: accept coordinator connections")
    parser.add_argument("--slots", type=int, default=1,
                        help="concurrent connections in --serve mode")
    parser.add_argument("--lane", default="local",
                        help="lane name reported in the hello handshake")
    args = parser.parse_args(argv)
    if args.connect:
        return run_connect(args.connect, args.lane)
    return run_serve(args.serve, max(1, args.slots), args.lane)


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    sys.exit(main())
