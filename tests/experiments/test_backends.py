"""Backend conformance suite.

One spec matrix, three execution backends, bit-identical records — the
contract that makes the backend a pure mechanism choice — and every one
of them running the fused cycle loop.  Plus the
distributed-specific machinery: lane parsing, the wire protocol, worker
death (retry and quarantine), and journal resume across backends.
"""

import json
import multiprocessing
import os
import signal
import socket
import struct
import threading

import pytest

from repro import faults
from repro.config import default_config
from repro.errors import BackendError, SimulationError
from repro.experiments.backends import (
    BACKEND_KINDS,
    create_backend,
    parse_lanes,
)
from repro.experiments.backends.worker import serve_connection
from repro.experiments.backends.wire import (
    MAGIC,
    MAX_FRAME,
    WireError,
    pack,
    recv,
    send,
)
from repro.experiments.sweep import (
    ControllerSpec,
    RunSpec,
    SweepConfig,
    SweepRunner,
)
from repro.pipeline.fused import FusedCore

LEN = 2_000

#: 20 specs: five benchmarks x four machine/policy points
MATRIX_BENCHES = ("gzip", "swim", "vpr", "crafty", "parser")
MATRIX_POINTS = (
    ("static-4", ControllerSpec.static(4)),
    ("static-16", ControllerSpec.static(16)),
    ("explore", ControllerSpec.explore()),
    ("finegrain", ControllerSpec.finegrain()),
)


def matrix_specs():
    return [
        RunSpec(
            profile=bench,
            trace_length=LEN,
            config=default_config(16),
            controller=controller,
            label=label,
        )
        for bench in MATRIX_BENCHES
        for label, controller in MATRIX_POINTS
    ]


def spec_for(profile, clusters=4):
    return RunSpec(
        profile=profile,
        trace_length=LEN,
        config=default_config(16),
        controller=ControllerSpec.static(clusters),
        label="backend",
    )


def snapshot(records):
    return [r.result.stats.snapshot() for r in records]


@pytest.fixture(autouse=True)
def no_leftover_plan():
    faults.clear_fault_plan()
    yield
    faults.clear_fault_plan()


@pytest.fixture(autouse=True)
def no_backend_env(monkeypatch):
    monkeypatch.delenv("REPRO_SWEEP_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_LANES", raising=False)


def config_for(kind, **kw):
    """A SweepConfig that forces one concrete backend."""
    if kind == "distributed":
        kw.setdefault("lanes", "local,2")
    elif kind == "process-pool":
        kw.setdefault("jobs", 2)
    return SweepConfig(backend=kind, use_cache=kw.pop("use_cache", False), **kw)


class TestConformance:
    """The acceptance matrix: every backend, same bits."""

    @pytest.fixture(scope="class")
    def reference(self):
        """The serial oracle over the full 20-spec matrix."""
        return SweepRunner(config_for("serial")).run(matrix_specs())

    @pytest.mark.parametrize("kind", ["process-pool", "distributed"])
    def test_matrix_bit_identical_to_serial(self, kind, reference):
        records = SweepRunner(config_for(kind)).run(matrix_specs())
        assert [r.status for r in records] == ["ok"] * len(records)
        assert snapshot(records) == snapshot(reference)
        assert [r.spec.label for r in records] == [
            r.spec.label for r in reference
        ]
        assert [r.events for r in records] == [r.events for r in reference]

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_cache_keys_identical(self, kind, tmp_path):
        """Identical specs must hash to identical cache entries no matter
        which backend executed them."""
        specs = [spec_for(p) for p in ("gzip", "swim")]
        cache_dir = tmp_path / kind
        SweepRunner(config_for(kind, use_cache=True, cache_dir=cache_dir)).run(
            specs
        )
        names = sorted(p.name for p in cache_dir.glob("*.pkl"))
        assert names == sorted(f"{s.cache_key()}.pkl" for s in specs)

    def test_cross_backend_cache_hits(self, tmp_path):
        """A cache populated by one backend satisfies another."""
        specs = [spec_for("gzip")]
        SweepRunner(config_for("serial", use_cache=True,
                               cache_dir=tmp_path)).run(specs)
        runner = SweepRunner(config_for("process-pool", use_cache=True,
                                        cache_dir=tmp_path))
        [record] = runner.run(specs)
        assert record.from_cache
        assert runner.metrics.cache_hits == 1

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_metrics_report_backend(self, kind):
        runner = SweepRunner(config_for(kind))
        runner.run([spec_for("gzip")])
        info = runner.metrics.snapshot()["backend"]
        assert info["kind"] == kind
        assert info["workers"] >= 1


class TestBackendSelection:
    def test_create_backend_unknown_kind(self):
        with pytest.raises(BackendError, match="unknown execution backend"):
            create_backend("steam-powered")

    def test_env_backend_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_BACKEND", "serial")
        assert SweepConfig(jobs=8).resolved_backend() == "serial"

    def test_env_lanes_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_LANES", "local,3")
        config = SweepConfig()
        assert config.resolved_backend() == "distributed"
        assert config.resolved_lanes() == "local,3"

    def test_batch_backend_retired(self):
        assert BACKEND_KINDS == ("serial", "process-pool", "distributed")
        with pytest.raises(BackendError, match="unknown execution backend"):
            create_backend("batch")
        with pytest.raises(TypeError):
            SweepConfig(batch_size=4)

    def test_backend_instance_escape_hatch(self):
        backend = create_backend("serial")
        records = SweepRunner(
            SweepConfig(backend=backend, use_cache=False)
        ).run([spec_for("gzip")])
        assert records[0].ok


class TestEveryBackendRunsFusedLoop:
    """Spec execution on every backend goes through ``FusedCore``: with
    the fused loop made to fail, each backend reports that failure."""

    @pytest.fixture(autouse=True)
    def broken_core(self, monkeypatch):
        def refuse(self, target_committed, max_cycles=None):
            raise SimulationError("fused loop entered")

        monkeypatch.setattr(FusedCore, "advance", refuse)

    @staticmethod
    def _assert_fused(config):
        [record] = SweepRunner(config).run([spec_for("gzip")])
        assert record.status == "failed"
        assert "fused loop entered" in record.error

    def test_serial(self):
        self._assert_fused(config_for("serial", retries=0))

    def test_process_pool(self):
        if multiprocessing.get_context().get_start_method() != "fork":
            pytest.skip("pool workers inherit the patched loop only when forked")
        self._assert_fused(config_for("process-pool", retries=0))

    def test_distributed(self):
        """A ``host:port`` lane dialing a worker agent served from this
        process, so the agent sees the patched loop."""
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def agent():
            conn, _ = listener.accept()
            with conn:
                serve_connection(conn, "in-process")

        thread = threading.Thread(target=agent, daemon=True)
        thread.start()
        try:
            self._assert_fused(
                config_for("distributed", lanes=f"127.0.0.1:{port},1", retries=0)
            )
        finally:
            thread.join(timeout=30)
            listener.close()


class TestParseLanes:
    def test_default_is_one_local_lane(self):
        [lane] = parse_lanes(None, default_slots=3)
        assert lane.is_local and lane.slots == 3

    def test_count_spellings(self):
        assert parse_lanes("4", default_slots=1)[0].slots == 4
        assert parse_lanes(4, default_slots=1)[0].slots == 4
        assert parse_lanes("local,2", default_slots=1)[0].slots == 2

    def test_remote_lane(self):
        [lane] = parse_lanes("nodeA:9000,8", default_slots=1)
        assert not lane.is_local
        assert (lane.host, lane.port, lane.slots) == ("nodeA", 9000, 8)

    def test_mixed_lanes(self):
        lanes = parse_lanes("local,2;nodeA:9000,4", default_slots=1)
        assert [lane.slots for lane in lanes] == [2, 4]
        assert lanes[0].is_local and not lanes[1].is_local

    @pytest.mark.parametrize(
        "bad", ["local,0", "local,-1", "host:notaport,2", ":9000,2",
                "host,x"]
    )
    def test_bad_lane_syntax_rejected(self, bad):
        with pytest.raises(BackendError):
            parse_lanes(bad, default_slots=1)


class TestWireProtocol:
    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            message = {"type": "job", "index": 3, "payload": list(range(50))}
            send(a, message)
            assert recv(b) == message
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv(b) is None
        finally:
            b.close()

    def test_mid_frame_eof_raises(self):
        a, b = socket.socketpair()
        try:
            frame = pack({"type": "job"})
            a.sendall(frame[: len(frame) - 2])
            a.close()
            with pytest.raises(WireError):
                recv(b)
        finally:
            b.close()

    def test_bad_magic_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack("!4sI", b"BOGU", 4) + b"\x00" * 4)
            with pytest.raises(WireError, match="magic"):
                recv(b)
        finally:
            a.close()
            b.close()

    def test_oversized_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack("!4sI", MAGIC, MAX_FRAME + 1))
            with pytest.raises(WireError, match="frame"):
                recv(b)
        finally:
            a.close()
            b.close()


class TestDistributedFaults:
    """Worker death under the distributed backend: blamed correctly,
    survived via respawn + retry, quarantined when unbounded, resumable."""

    def test_single_crash_respawns_and_retries(self, tmp_path):
        token_dir = tmp_path / "tokens"
        token_dir.mkdir()
        (token_dir / "crash-0").touch()  # budget: exactly one worker death
        faults.set_fault_plan(
            faults.FaultPlan(
                crash_profiles=("swim",), crash_token_dir=str(token_dir)
            )
        )
        runner = SweepRunner(config_for("distributed"))
        records = runner.run([spec_for(p) for p in ("gzip", "swim", "vpr")])
        assert [r.status for r in records] == ["ok", "ok", "ok"]
        assert runner.metrics.pool_respawns >= 1
        assert list(token_dir.iterdir()) == []

    def test_repeat_crasher_quarantined_then_resume_completes(self, tmp_path):
        """A spec that kills every worker it touches is poisoned without
        sinking its neighbours; after the fault is disarmed, --resume
        re-attempts only the poisoned spec and converges to all-ok."""
        journal_path = tmp_path / "sweep.jsonl"
        faults.set_fault_plan(faults.FaultPlan(crash_profiles=("swim",)))
        runner = SweepRunner(
            config_for("distributed", retries=0, poison_threshold=2,
                       journal=journal_path)
        )
        records = runner.run([spec_for(p) for p in ("gzip", "swim", "vpr")])
        by_profile = {r.spec.profile: r for r in records}
        assert by_profile["swim"].status == "poisoned"
        assert "quarantined" in by_profile["swim"].error
        assert by_profile["gzip"].ok and by_profile["vpr"].ok
        assert runner.metrics.poisoned == 1

        faults.clear_fault_plan()
        resumed = SweepRunner(
            config_for("distributed", retries=0, poison_threshold=2,
                       journal=journal_path, resume=True)
        )
        records = resumed.run([spec_for(p) for p in ("gzip", "swim", "vpr")])
        assert [r.status for r in records] == ["ok", "ok", "ok"]
        assert resumed.metrics.journal_skips == 2  # the two ok neighbours

        reference = SweepRunner(config_for("serial")).run(
            [spec_for(p) for p in ("gzip", "swim", "vpr")]
        )
        assert snapshot(records)[0] == snapshot(reference)[0]
        assert snapshot(records)[2] == snapshot(reference)[2]

    def test_sigkilled_worker_is_respawned(self):
        """An externally SIGKILL-ed idle worker draws no blame: the lane is
        respawned and the sweep completes all-ok."""
        backend = create_backend("distributed", lanes="local,2", jobs=2)
        runner = SweepRunner(SweepConfig(backend=backend, use_cache=False))
        records = runner.run(
            [spec_for(p) for p in ("gzip", "swim", "vpr", "crafty")],
        )
        # sanity without injection first: now repeat with the kill hook
        assert all(r.ok for r in records)

        backend2 = create_backend("distributed", lanes="local,2", jobs=2)
        killed = threading.Event()

        def kill_one(event):
            if not killed.is_set() and backend2._procs:
                os.kill(backend2._procs[0].pid, signal.SIGKILL)
                killed.set()

        runner2 = SweepRunner(
            SweepConfig(backend=backend2, use_cache=False), progress=kill_one
        )
        records2 = runner2.run(
            [spec_for(p) for p in ("gzip", "swim", "vpr", "crafty")],
        )
        assert killed.is_set()
        assert all(r.ok for r in records2)
        assert snapshot(records2) == snapshot(records)


class TestBackendObservability:
    def test_lifecycle_events_exported(self, tmp_path):
        runner = SweepRunner(config_for("distributed", trace_dir=tmp_path))
        runner.run([spec_for(p) for p in ("gzip", "swim")])
        events = runner.metrics.snapshot()["backend"]["events"]
        kinds = [e["event"] for e in events]
        assert "coordinator_listen" in kinds
        assert kinds.count("worker_spawn") == 2
        assert "worker_connect" in kinds
        assert "lane_assign" in kinds

        trace = json.loads((tmp_path / "sweep_trace.json").read_text())
        names = {e.get("name") for e in trace["traceEvents"]}
        assert "lane_assign" in names

    def test_serial_backend_stats_shape(self):
        runner = SweepRunner(config_for("serial"))
        runner.run([spec_for("gzip")])
        info = runner.metrics.snapshot()["backend"]
        assert info["workers"] == 1
        assert info["executed"] == 1


@pytest.mark.slow
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="scaling acceptance needs >= 4 cores",
)
class TestScaling:
    def test_distributed_4x_beats_serial_3x(self):
        """The PR acceptance criterion: a 200-spec synthetic sweep on a
        4-worker localhost DistributedBackend finishes >= 3x faster than
        SerialBackend, bit-identical."""
        import time

        specs = [
            RunSpec(
                profile=MATRIX_BENCHES[i % len(MATRIX_BENCHES)],
                trace_length=1_000,
                config=default_config(16),
                controller=ControllerSpec.static(4),
                label=f"scale-{i}",
            )
            for i in range(200)
        ]
        t0 = time.perf_counter()
        serial = SweepRunner(config_for("serial")).run(specs)
        serial_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        distributed = SweepRunner(
            config_for("distributed", lanes="local,4")
        ).run(specs)
        distributed_s = time.perf_counter() - t0

        assert snapshot(distributed) == snapshot(serial)
        assert distributed_s * 3 <= serial_s, (
            f"distributed {distributed_s:.1f}s vs serial {serial_s:.1f}s"
        )
