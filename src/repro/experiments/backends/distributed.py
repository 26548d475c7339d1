"""Asyncio coordinator serving sweep specs to TCP workers.

The :class:`DistributedBackend` runs an asyncio event loop on a daemon
thread.  The loop owns a TCP server (loopback by default), a shared
``asyncio.Queue`` of submitted specs, and one peer coroutine per worker
connection; the runner's thread talks to it only through two
thread-safe hand-off points (``call_soon_threadsafe`` into the job
queue, a ``queue.Queue`` of :class:`~.base.Completion` objects out).

Workers come from *lanes* (see :func:`parse_lanes`):

* ``local`` lanes — the coordinator spawns
  ``python -m repro.experiments.backends.worker --connect`` subprocesses
  on this machine, one per slot, and respawns them (budgeted) if they
  die;
* ``host:port`` lanes — the coordinator dials out to a standing worker
  agent (``--serve`` mode) on another machine, opening one connection
  per slot.

Exactly one spec is in flight per connection, so crash attribution is
structural: a connection that dies mid-job blames precisely the spec it
was running (``crashed=True``), and the runner's quarantine logic needs
no probing phase.  A worker that dies *between* jobs blames nobody.

Ordering note: completions arrive in wall-clock order, but the runner
slots them back by index, so results — and therefore every exhibit —
are bit-identical to :class:`~.serial.SerialBackend` (the conformance
suite proves it).
"""

from __future__ import annotations

import asyncio
import pathlib
import queue as thread_queue
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from ...config import spawn_env
from ...errors import BackendError
from .base import BackendEventLog, Completion, ExecutionBackend
from . import wire

#: default seconds to wait for the first worker hello before giving up
STARTUP_TIMEOUT = 30.0
#: extra seconds past the per-spec timeout before a silent worker is
#: declared dead (the in-worker deadline poll should have answered long
#: before; this catches a worker wedged outside Python)
TIMEOUT_GRACE = 30.0
#: local-lane respawn budget multiplier (per slot)
RESPAWNS_PER_SLOT = 8

_SHUTDOWN = object()  # job-queue sentinel: tells a peer to release its worker


@dataclass(frozen=True)
class WorkerLane:
    """One source of worker connections.

    ``host="local"`` means subprocesses spawned by the coordinator;
    anything else is the address of a standing ``--serve`` worker agent.
    """

    host: str = "local"
    port: int = 0
    slots: int = 1
    name: str = "local"

    @property
    def is_local(self) -> bool:
        return self.host == "local"


def parse_lanes(spec: Union[str, int, Sequence[WorkerLane], None],
                default_slots: int = 1) -> Tuple[WorkerLane, ...]:
    """Lane list from the CLI/env syntax.

    ``"4"`` or ``4`` — four local worker slots.  ``"local,4"`` — the
    same, spelled out.  ``"10.0.0.2:9123,8"`` — eight connections to a
    worker agent on another host.  Semicolons separate lanes:
    ``"local,2;bigbox:9123,16"``.  ``None``/``""`` — one local lane
    with ``default_slots`` slots.
    """
    if spec is None or spec == "":
        return (WorkerLane(slots=max(1, default_slots)),)
    if isinstance(spec, int):
        return (WorkerLane(slots=max(1, spec)),)
    if not isinstance(spec, str):
        lanes = tuple(spec)
        if not lanes or not all(isinstance(lane, WorkerLane) for lane in lanes):
            raise BackendError(f"invalid lane list {spec!r}")
        return lanes
    lanes = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        address, _, slots_text = chunk.partition(",")
        address = address.strip()
        slots_text = slots_text.strip()
        try:
            slots = int(slots_text) if slots_text else default_slots
        except ValueError:
            raise BackendError(
                f"bad slot count {slots_text!r} in lane {chunk!r}"
            ) from None
        if slots < 1:
            raise BackendError(f"lane {chunk!r} needs at least one slot")
        if address in ("", "local") or address.isdigit():
            # "4" is shorthand for "local,4"
            if address.isdigit():
                slots = int(address)
            lanes.append(WorkerLane(slots=slots, name=f"local{len(lanes)}"))
            continue
        host, _, port_text = address.rpartition(":")
        if not host or not port_text.isdigit():
            raise BackendError(
                f"lane {chunk!r} must be 'local,N', 'N', or 'HOST:PORT,N'"
            )
        lanes.append(
            WorkerLane(host=host, port=int(port_text), slots=slots,
                       name=f"{host}:{port_text}")
        )
    if not lanes:
        raise BackendError(f"no lanes in {spec!r}")
    return tuple(lanes)


class DistributedBackend(ExecutionBackend):
    kind = "distributed"

    def __init__(
        self,
        lanes: Union[str, int, Sequence[WorkerLane], None] = None,
        jobs: Optional[int] = None,
        timeout: Optional[float] = None,
        bind: str = "127.0.0.1",
        startup_timeout: float = STARTUP_TIMEOUT,
    ) -> None:
        self.lanes = parse_lanes(lanes, default_slots=max(1, jobs or 1))
        self.timeout = timeout
        self.bind = bind
        self.startup_timeout = startup_timeout
        self.address: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._jobs_q: Optional[asyncio.Queue] = None
        self._completions: thread_queue.Queue = thread_queue.Queue()
        self._procs: List[subprocess.Popen] = []
        #: dial-out peer tasks (loop thread only).  The loop holds tasks
        #: weakly and a client stream's protocol holds its reader weakly,
        #: so without this a pending dial is a garbage cycle the GC may
        #: collect mid-job, dropping the connection
        self._dials: set = set()
        self._peers = 0  # live peer coroutines (loop thread only)
        self._connected_total = 0
        self._respawns = 0
        self._respawn_budget = RESPAWNS_PER_SLOT * sum(
            lane.slots for lane in self.lanes if lane.is_local
        )
        self._outstanding = 0  # submissions not yet completed (main thread)
        self._closing = False
        self._cancelled = False
        self._first_hello = threading.Event()
        self._log = BackendEventLog(clock0=time.perf_counter())

    # ------------------------------------------------------------------
    # runner-facing API (main thread)

    def start(self) -> None:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="sweep-coordinator", daemon=True
        )
        self._thread.start()
        try:
            self._call(self._startup(), timeout=self.startup_timeout)
        except Exception as exc:
            self.close()
            raise BackendError(f"distributed backend failed to start: {exc}")
        if not self._first_hello.wait(self.startup_timeout):
            self.close()
            raise BackendError(
                f"no worker connected within {self.startup_timeout:g}s "
                f"(lanes: {[lane.name for lane in self.lanes]})"
            )

    def submit(self, index: int, spec: object, solo: bool = False) -> None:
        # solo is moot: every worker runs exactly one spec at a time, so
        # crash attribution is already per-spec
        self._outstanding += 1
        item = (index, spec, time.perf_counter())
        self._loop.call_soon_threadsafe(self._jobs_q.put_nowait, item)

    def drain(self) -> List[Completion]:
        completions: List[Completion] = []
        if not self._outstanding:
            return completions
        while not completions:
            try:
                completions.append(self._completions.get(timeout=0.5))
            except thread_queue.Empty:
                if not self._alive():
                    raise BackendError(
                        "every worker is gone and the respawn budget is "
                        f"exhausted ({self._respawns} respawns); "
                        f"{self._outstanding} spec(s) unfinished"
                    )
        while True:
            try:
                completions.append(self._completions.get_nowait())
            except thread_queue.Empty:
                break
        self._outstanding -= len(completions)
        return completions

    def cancel(self) -> List[Tuple[int, object]]:
        self._cancelled = True
        dropped = self._call(self._purge_queue(), timeout=10.0)
        self._outstanding -= len(dropped)
        return [(index, spec) for index, spec, _ in dropped]

    def close(self) -> None:
        if self._loop is None:
            return
        self._closing = True
        try:
            self._call(self._shutdown(), timeout=15.0)
        except Exception:
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        if not self._loop.is_running():
            self._loop.close()
        self._loop = None
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
        deadline = time.perf_counter() + 5.0
        for proc in self._procs:
            while proc.poll() is None and time.perf_counter() < deadline:
                time.sleep(0.05)
            if proc.poll() is None:  # pragma: no cover - stubborn worker
                proc.kill()
        self._log.emit("backend_close", time.perf_counter())

    def stats(self):
        return {
            "kind": self.kind,
            "lanes": [
                {"name": lane.name, "host": lane.host, "slots": lane.slots}
                for lane in self.lanes
            ],
            "workers": sum(lane.slots for lane in self.lanes),
            "workers_connected_total": self._connected_total,
            "respawns": self._respawns,
            "events": list(self._log.events),
        }

    # ------------------------------------------------------------------
    # loop-side machinery

    def _call(self, coro, timeout: float):
        """Run a coroutine on the loop thread and wait for its result."""
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout=timeout)

    def _alive(self) -> bool:
        if self._thread is None or not self._thread.is_alive():
            return False
        if self._peers > 0 or self._first_hello.is_set() is False:
            return True
        # no peer is connected; progress is still possible while local
        # respawns remain in the budget or a spawned worker is booting
        if any(proc.poll() is None for proc in self._procs):
            return True
        return self._respawns < self._respawn_budget and any(
            lane.is_local for lane in self.lanes
        )

    async def _startup(self) -> None:
        self._jobs_q = asyncio.Queue()
        self._server = await asyncio.start_server(
            self._on_connection, host=self.bind, port=0
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        self._log.emit(
            "coordinator_listen", time.perf_counter(),
            address=f"{self.address[0]}:{self.address[1]}",
        )
        for lane in self.lanes:
            if lane.is_local:
                for _ in range(lane.slots):
                    await self._spawn_local(lane)
            else:
                for slot in range(lane.slots):
                    task = asyncio.ensure_future(self._dial(lane, slot))
                    self._dials.add(task)
                    task.add_done_callback(self._dials.discard)

    def _popen_local(self, lane: WorkerLane) -> subprocess.Popen:
        """Fork+exec one worker process (runs on an executor thread)."""
        host, port = self.address
        # workers import this very package; make sure the source tree the
        # coordinator runs from wins over any installed copy
        src_root = str(pathlib.Path(__file__).resolve().parents[3])
        env = spawn_env()
        env["PYTHONPATH"] = src_root + (
            ":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro.experiments.backends.worker",
                "--connect", f"{host}:{port}", "--lane", lane.name,
            ],
            env=env,
            stdout=subprocess.DEVNULL,
        )

    async def _spawn_local(self, lane: WorkerLane) -> None:
        # fork+exec blocks for milliseconds-to-worse under memory
        # pressure; on the loop thread that would stall every worker
        # connection at once (a respawn happens exactly when the loop is
        # busiest), so the Popen runs on the default executor
        loop = asyncio.get_running_loop()
        proc = await loop.run_in_executor(None, self._popen_local, lane)
        self._procs.append(proc)
        self._log.emit("worker_spawn", time.perf_counter(),
                       lane=lane.name, pid=proc.pid)

    async def _dial(self, lane: WorkerLane, slot: int) -> None:
        try:
            reader, writer = await asyncio.open_connection(lane.host, lane.port)
        except OSError as exc:
            self._log.emit("lane_unreachable", time.perf_counter(),
                           lane=lane.name, slot=slot, error=str(exc))
            return
        await self._serve_peer(reader, writer)

    async def _on_connection(self, reader, writer) -> None:
        await self._serve_peer(reader, writer)

    async def _serve_peer(self, reader, writer) -> None:
        """Feed one worker connection jobs until shutdown or death."""
        hello = await wire.read_frame(reader)
        if (
            not isinstance(hello, dict)
            or hello.get("type") != "hello"
            or hello.get("version") != wire.PROTOCOL_VERSION
        ):
            writer.close()
            return
        worker = f"{hello.get('lane', '?')}/{hello.get('host', '?')}:{hello.get('pid', 0)}"
        self._peers += 1
        self._connected_total += 1
        self._first_hello.set()
        self._log.emit("worker_connect", time.perf_counter(), worker=worker)
        try:
            while not self._closing:
                item = await self._next_job(reader, worker)
                if item is _SHUTDOWN or item is None:
                    if item is _SHUTDOWN:
                        await wire.write_frame(writer, {"type": "shutdown"})
                    return
                index, spec, submitted_at = item
                self._log.emit("lane_assign", time.perf_counter(),
                               worker=worker, index=index,
                               profile=getattr(spec, "profile", "?"))
                sent = await wire.write_frame(
                    writer,
                    {"type": "job", "index": index, "spec": spec,
                     "timeout": self.timeout},
                )
                reply = None
                if sent:
                    reply = await self._await_result(reader, worker)
                if not isinstance(reply, dict) or reply.get("type") != "result":
                    # the worker died (or wedged past grace) holding
                    # exactly this spec: provably the culprit
                    self._completions.put(
                        Completion(index, spec, crashed=True, worker=worker)
                    )
                    self._log.emit("worker_died", time.perf_counter(),
                                   worker=worker, blamed_index=index)
                    return
                record = reply["record"]
                queue_seconds = max(
                    0.0,
                    time.perf_counter() - submitted_at
                    - getattr(record, "duration", 0.0),
                )
                self._completions.put(
                    Completion(index, spec, record,
                               queue_seconds=queue_seconds, worker=worker)
                )
        finally:
            self._peers -= 1
            writer.close()
            self._log.emit("worker_disconnect", time.perf_counter(),
                           worker=worker)
            if not self._closing:
                await self._maybe_respawn(worker)

    async def _next_job(self, reader, worker):
        """Wait for a job while also watching the idle connection for EOF.

        The protocol is strictly request/response, so a byte (or EOF)
        arriving while no job is in flight can only mean the worker died
        idle — in which case nobody is blamed and the slot respawns.  The
        watcher is retracted (cancelled and awaited) before any job is
        sent, so it can never eat a result frame.
        """
        get_job = asyncio.ensure_future(self._jobs_q.get())
        eof_watch = asyncio.ensure_future(reader.read(1))
        done, _pending = await asyncio.wait(
            {get_job, eof_watch}, return_when=asyncio.FIRST_COMPLETED
        )
        died = False
        if eof_watch in done:
            eof_watch.exception()  # retrieve; a reset counts as a death too
            died = True
        else:
            eof_watch.cancel()
            try:
                await eof_watch
            except asyncio.CancelledError:
                pass  # the normal retraction: no byte was consumed
            except Exception:
                died = True  # connection reset in the race window
            else:
                died = True  # EOF (or a protocol-violating byte) raced us
        if died:
            if get_job in done:
                item = get_job.result()
                if item is not _SHUTDOWN:
                    # claimed in the same instant the worker died: the job
                    # was never sent, so it goes straight back to the queue
                    self._jobs_q.put_nowait(item)
            else:
                get_job.cancel()
                try:
                    await get_job
                except asyncio.CancelledError:
                    pass
            self._log.emit("worker_idle_exit", time.perf_counter(),
                           worker=worker)
            return None
        return get_job.result()

    async def _await_result(self, reader, worker):
        """The worker's result frame, bounded by timeout + grace."""
        if self.timeout is None:
            return await wire.read_frame(reader)
        try:
            return await asyncio.wait_for(
                wire.read_frame(reader), self.timeout + TIMEOUT_GRACE
            )
        except asyncio.TimeoutError:
            # no deadline poll answered (wedged in a syscall?); give up on it
            self._log.emit("worker_wedged", time.perf_counter(), worker=worker)
            return None

    async def _maybe_respawn(self, worker: str) -> None:
        """Replace a dead locally-spawned worker, within budget."""
        lane_name = worker.split("/", 1)[0]
        lane = next(
            (ln for ln in self.lanes if ln.is_local and ln.name == lane_name),
            None,
        )
        if lane is None:
            return  # remote lanes are the remote agent's job to refill
        if self._respawns >= self._respawn_budget:
            self._log.emit("respawn_budget_exhausted", time.perf_counter(),
                           lane=lane_name)
            return
        self._respawns += 1
        await self._spawn_local(lane)

    async def _purge_queue(self) -> List[Tuple[int, object, float]]:
        dropped = []
        while True:
            try:
                item = self._jobs_q.get_nowait()
            except asyncio.QueueEmpty:
                return dropped
            if item is not _SHUTDOWN:
                dropped.append(item)

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
        # one sentinel per live peer releases every idle worker; peers
        # mid-job finish first (their completion is already queued by the
        # time the runner calls close)
        for _ in range(max(self._peers, 1)):
            self._jobs_q.put_nowait(_SHUTDOWN)
        for _ in range(100):  # up to ~5s for peers to say goodbye
            if self._peers <= 0:
                break
            await asyncio.sleep(0.05)
