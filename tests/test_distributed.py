"""Distributed execution backends: protocol, remote workers, chaos, fleet cache.

The acceptance bar for the distributed layer is *bit-identity*: a grid
run over remote workers — even one where a worker is SIGKILLed and a
socket is severed mid-cell — must equal the in-process serial oracle
cell for cell, fingerprint for fingerprint.  Everything here asserts
equality, never approx.
"""

import contextlib
import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.experiments.backends import protocol as proto
from repro.experiments.backends.base import (
    BackendUnavailable,
    CellOutcome,
    CellRequest,
    CellTask,
    ExecutionBackend,
    ReleaseReport,
)
from repro.experiments.backends.cache import LocalDirStore, RemoteCacheStore
from repro.experiments.backends.remote import RemoteWorkerBackend
from repro.experiments.backends.worker import WorkerServer
from repro.experiments.dispatch import Dispatch
from repro.experiments.engine import (
    ExperimentEngine,
    ResultCache,
    cell_fingerprint,
    fingerprint_jobs,
)
from repro.experiments.paper import probabilistic_workload
from repro.experiments.workload_store import WorkloadStore
from repro.schedulers.registry import (
    SchedulerConfig,
    paper_configurations,
    registered_configurations,
)

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def workload():
    return probabilistic_workload(80, seed=7)


@pytest.fixture(scope="module")
def registry_configs():
    return list(registered_configurations())


@pytest.fixture(scope="module")
def oracle(workload, registry_configs):
    """Serial in-process oracle over the full registry, with fingerprints."""
    engine = ExperimentEngine(workers=1)
    return engine.run(workload[:40], total_nodes=256, configs=registry_configs)


def assert_grids_equal(actual, expected, keys=None):
    wanted = list(expected.cells) if keys is None else list(keys)
    for key in wanted:
        assert actual.cells[key].objective == expected.cells[key].objective, key
        assert actual.cells[key].makespan == expected.cells[key].makespan, key
        if key in expected.fingerprints:
            assert actual.fingerprints[key] == expected.fingerprints[key], key


# -- process-level helpers -----------------------------------------------------


def _spawn_worker(*extra: str):
    """One real worker subprocess on an ephemeral port -> (proc, address)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.experiments.backends.worker",
            "127.0.0.1:0",
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    line = (proc.stdout.readline() or "").strip()
    if not line.startswith("WORKER_LISTENING"):
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not announce itself: {line!r}")
    _, host, port = line.split()
    return proc, f"{host}:{port}"


@contextlib.contextmanager
def worker_processes(*extras: tuple):
    procs = []
    addresses = []
    try:
        for extra in extras:
            proc, address = _spawn_worker(*extra)
            procs.append(proc)
            addresses.append(address)
        yield addresses
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()


@contextlib.contextmanager
def in_thread_server(**kwargs):
    """A WorkerServer inside this process (shares the test's registry)."""
    server = WorkerServer("127.0.0.1", 0, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.close()


def _address(server: WorkerServer) -> str:
    return f"{server.host}:{server.port}"


def _dead_address() -> str:
    """An address nothing listens on (bound once, then closed)."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return f"127.0.0.1:{port}"


# -- the wire protocol ---------------------------------------------------------


class TestProtocol:
    def test_round_trip_every_kind(self):
        a, b = socket.socketpair()
        try:
            cases = [
                (proto.Kind.HELLO, {"version": 1, "heartbeat_interval": 2.5}),
                (proto.Kind.SEED, ("ab" * 32, b"packed-bytes")),
                (proto.Kind.TASK, ("fcfs", "easy", "digest", 256, False)),
                (proto.Kind.RESULT, ("fcfs/easy", {"objective": 1.0}, 0.25)),
                (proto.Kind.CACHE_VALUE, ("cd" * 32, '{"version": 4}')),
                (proto.Kind.BYE, None),
            ]
            for kind, payload in cases:
                proto.send_frame(a, kind, payload)
                frame = proto.recv_frame(b)
                assert frame.kind is kind
                assert frame.payload == payload
        finally:
            a.close()
            b.close()

    def test_corrupt_payload_raises_not_deserializes(self):
        a, b = socket.socketpair()
        try:
            import pickle

            body = pickle.dumps(("fcfs/easy", "payload"))
            header = proto.HEADER.pack(
                proto.MAGIC, int(proto.Kind.RESULT), len(body),
                proto._checksum(body),
            )
            corrupted = bytearray(body)
            corrupted[-1] ^= 0xFF  # one flipped bit on the wire
            a.sendall(header + bytes(corrupted))
            with pytest.raises(proto.ProtocolError, match="checksum"):
                proto.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_bad_magic_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"XX" + b"\x00" * 64)
            with pytest.raises(proto.ProtocolError, match="magic"):
                proto.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_hostile_length_rejected_before_allocation(self):
        a, b = socket.socketpair()
        try:
            header = proto.HEADER.pack(
                proto.MAGIC, int(proto.Kind.TASK), proto.MAX_FRAME + 1, b"\x00" * 8
            )
            a.sendall(header)
            with pytest.raises(proto.ProtocolError, match="MAX_FRAME"):
                proto.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_peer_hangup_mid_frame_is_connection_error(self):
        a, b = socket.socketpair()
        try:
            a.sendall(proto.MAGIC)  # a torn header
            a.close()
            with pytest.raises(ConnectionError):
                proto.recv_frame(b)
        finally:
            b.close()

    def test_parse_address(self):
        assert proto.parse_address("9100") == ("127.0.0.1", 9100)
        assert proto.parse_address("node7:9100") == ("node7", 9100)
        assert proto.parse_address(("host", 1)) == ("host", 1)
        with pytest.raises(ValueError, match="address"):
            proto.parse_address("not-a-port")


# -- the concurrent-writer race fix (satellite: tmp-suffix collision) ----------


class TestLocalDirStoreRace:
    def test_concurrent_writers_same_fingerprint_never_tear(self, tmp_path):
        store = LocalDirStore(tmp_path)
        fingerprint = "ab" * 32
        texts = [json.dumps({"writer": i, "pad": "x" * 256}) for i in range(8)]
        errors: list = []

        def hammer(text: str) -> None:
            try:
                for _ in range(25):
                    store.save(fingerprint, text)
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,)) for t in texts]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # The survivor is one of the writers' payloads, intact — never a
        # torn interleaving of two.
        assert store.load(fingerprint) in texts
        # No temp files leaked by the os.replace/unlink dance.
        assert not list(tmp_path.rglob("*.tmp"))


# -- watchdog knobs from the environment (satellite) ---------------------------


class TestWatchdogEnv:
    def test_interval_env_sets_interval_and_derived_timeout(self, monkeypatch):
        monkeypatch.setenv("REPRO_WATCHDOG_INTERVAL", "7")
        engine = ExperimentEngine()
        assert engine.heartbeat_interval == 7.0
        assert engine.heartbeat_timeout == 30.0  # max(4*7, 30)
        monkeypatch.setenv("REPRO_WATCHDOG_INTERVAL", "20")
        assert ExperimentEngine().heartbeat_timeout == 80.0

    def test_interval_env_off_disables_watchdog(self, monkeypatch):
        monkeypatch.setenv("REPRO_WATCHDOG_INTERVAL", "off")
        engine = ExperimentEngine()
        assert engine.heartbeat_interval is None
        assert engine.heartbeat_timeout is None

    def test_timeout_env_overrides_derived_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_WATCHDOG_TIMEOUT", "120")
        engine = ExperimentEngine()
        assert engine.heartbeat_interval == 15.0
        assert engine.heartbeat_timeout == 120.0

    def test_explicit_kwargs_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WATCHDOG_INTERVAL", "7")
        monkeypatch.setenv("REPRO_WATCHDOG_TIMEOUT", "120")
        engine = ExperimentEngine(heartbeat_interval=3.0, heartbeat_timeout=9.0)
        assert engine.heartbeat_interval == 3.0
        assert engine.heartbeat_timeout == 9.0
        assert ExperimentEngine(heartbeat_interval=None).heartbeat_interval is None

    def test_garbage_env_rejected_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_WATCHDOG_INTERVAL", "soon")
        with pytest.raises(ValueError, match="REPRO_WATCHDOG_INTERVAL"):
            ExperimentEngine()
        monkeypatch.delenv("REPRO_WATCHDOG_INTERVAL")
        monkeypatch.setenv("REPRO_WATCHDOG_TIMEOUT", "later")
        with pytest.raises(ValueError, match="REPRO_WATCHDOG_TIMEOUT"):
            ExperimentEngine()


# -- remote execution: equivalence and chaos -----------------------------------


class TestRemoteExecution:
    def test_two_workers_full_registry_bit_identical(
        self, tmp_path, workload, registry_configs, oracle
    ):
        with worker_processes((), ()) as addresses:
            engine = ExperimentEngine(
                workers=2,
                cache=tmp_path / "cache",
                execution_backend="remote",
                connect=addresses,
                retry_backoff=0.05,
            )
            grid = engine.run(
                workload[:40], total_nodes=256, configs=registry_configs
            )
        assert engine.stats.backend == "remote"
        assert engine.stats.simulated == len(registry_configs)
        assert list(grid.cells) == list(oracle.cells)
        assert grid.fingerprints == oracle.fingerprints
        assert_grids_equal(grid, oracle)

    def test_sigkilled_worker_and_severed_socket_still_bit_identical(
        self, workload, registry_configs, oracle
    ):
        """The acceptance scenario: one worker hard-exits mid-cell, the
        other's socket is severed (RST) mid-cell; the grid completes and
        equals the serial oracle exactly."""
        chaos = (("--chaos-exit-after", "2"), ("--chaos-drop-after", "3"))
        with worker_processes(*chaos) as addresses:
            engine = ExperimentEngine(
                workers=2,
                execution_backend="remote",
                connect=addresses,
                retry_backoff=0.05,
                max_retries=3,
                max_pool_rebuilds=3,
            )
            grid = engine.run(
                workload[:40], total_nodes=256, configs=registry_configs
            )
        assert engine.stats.backend == "remote"
        assert engine.stats.retries >= 1
        assert grid.fingerprints == oracle.fingerprints
        assert_grids_equal(grid, oracle)

    def test_unreachable_fleet_degrades_down_the_ladder(self, workload, oracle):
        events = []
        engine = ExperimentEngine(
            workers=2,
            on_event=events.append,
            execution_backend="remote",
            connect=[_dead_address(), _dead_address()],
            retry_backoff=0.05,
        )
        configs = [SchedulerConfig("fcfs", "easy"), SchedulerConfig("psrs", "easy")]
        grid = engine.run(workload[:40], total_nodes=256, configs=configs)
        # The remote rung never started; the local pool rung did.
        assert engine.stats.backend == "local-pool"
        degraded = [e for e in events if e.kind == "engine-degraded"]
        assert any("unavailable" in e.detail for e in degraded)
        assert_grids_equal(grid, oracle, keys=[c.key for c in configs])


# -- leases, zombies and duplicate results (satellite) -------------------------


class _DuplicatingBackend(ExecutionBackend):
    """Computes cells in-process and answers the first one twice.

    Models a zombie worker whose revoked lease produces a late second
    RESULT: both copies reach the engine, which must count the cell once.
    """

    name = "stub-dup"

    def __init__(self, store_entries) -> None:
        self._store_entries = store_entries
        self._pending: list[CellTask] = []
        self._duplicated = False

    def start(self) -> None:
        # Like the real backends: hydrate the process that will run the
        # cells (here, this one) from the packed store entries.
        from repro.experiments.workload_store import seed_worker_cache

        seed_worker_cache(self._store_entries)

    def can_accept(self) -> bool:
        return True

    def submit(self, task: CellTask) -> bool:
        self._pending.append(task)
        return True

    def collect(self, timeout):
        from repro.experiments.engine import _run_cell_task

        outcomes = []
        for task in self._pending:
            value = _run_cell_task(task.request)
            outcomes.append(CellOutcome(task.fingerprint, "done", value=value))
            if not self._duplicated:
                self._duplicated = True
                outcomes.append(
                    CellOutcome(task.fingerprint, "done", value=value)
                )
        self._pending.clear()
        return outcomes

    def in_flight(self) -> set:
        return {task.fingerprint for task in self._pending}

    def release(self, fingerprints, reason):
        return ReleaseReport()

    def reset(self, should_abort=None) -> bool:
        return True

    def close(self) -> None:  # pragma: no cover - trivial
        pass


class TestLeasesAndDuplicates:
    def test_zombie_keeps_socket_and_delivers_late_result(self, workload):
        """Lease revocation must not close the connection: the late
        RESULT of a too-slow worker still arrives afterwards."""
        with in_thread_server(chaos_stall_first=1.0) as server:
            jobs = workload[:30]
            digest = fingerprint_jobs(jobs)
            store = WorkloadStore()
            store.register(digest, jobs)
            backend = RemoteWorkerBackend(
                [_address(server)], store_entries=store.entries(digest)
            )
            backend.start()
            try:
                task = CellTask(
                    fingerprint="ab" * 32,
                    request=CellRequest(
                        config=SchedulerConfig("fcfs", "easy"),
                        digest=digest,
                        total_nodes=256,
                        weighted=False,
                        recompute_threshold=2.0 / 3.0,
                        scenario=None,
                        cancel_over_limit=False,
                        backend=None,
                    ),
                )
                assert backend.submit(task)
                assert backend.in_flight() == {"ab" * 32}
                # Stalled: nothing within the lease window.
                assert backend.collect(0.3) == []
                report = backend.release({"ab" * 32}, "lease expired")
                assert report.requeue == ()
                assert not report.broke
                assert backend.in_flight() == set()  # lease revoked
                assert not backend.can_accept()  # zombie gets no new cells
                late = backend.collect(5.0)
                assert [o.kind for o in late] == ["done"]
                assert late[0].fingerprint == "ab" * 32
                key, cell, wall = late[0].value
                assert key == "fcfs/easy"
                assert cell.objective > 0
                assert backend.can_accept()  # a zombie that answered serves again
            finally:
                backend.close()

    def test_duplicate_result_counts_once_and_stays_bit_identical(
        self, workload, oracle, monkeypatch
    ):
        events = []
        engine = ExperimentEngine(workers=2, on_event=events.append)
        monkeypatch.setattr(
            Dispatch,
            "ladder",
            lambda self, store_entries: [lambda: _DuplicatingBackend(store_entries)],
        )
        configs = [
            SchedulerConfig("fcfs", "easy"),
            SchedulerConfig("fcfs", "list"),
            SchedulerConfig("psrs", "easy"),
        ]
        grid = engine.run(workload[:40], total_nodes=256, configs=configs)
        assert engine.stats.backend == "stub-dup"
        assert engine.stats.duplicate_results == 1
        assert engine.stats.simulated == len(configs)  # counted once each
        kinds = [e.kind for e in events]
        assert kinds.count("cell-duplicate") == 1
        assert_grids_equal(grid, oracle, keys=[c.key for c in configs])

    def test_expired_lease_charges_retry_and_other_worker_completes(
        self, workload, oracle
    ):
        """End to end over sockets: the first dispatched cell stalls past
        its lease, is revoked and re-dispatched, and the grid still
        equals the oracle bit for bit."""
        stall = in_thread_server(chaos_stall_first=30.0)  # never answers in time
        healthy = in_thread_server()
        events = []
        with stall as slow_server, healthy as good_server:
            engine = ExperimentEngine(
                workers=2,
                on_event=events.append,
                execution_backend="remote",
                # The staller is first: it receives the first submitted cell.
                connect=[_address(slow_server), _address(good_server)],
                cell_timeout=1.0,
                retry_backoff=0.05,
                max_retries=3,
            )
            configs = list(paper_configurations())
            grid = engine.run(workload[:40], total_nodes=256, configs=configs)
        assert engine.stats.retries >= 1
        retries = [e for e in events if e.kind == "cell-retry"]
        assert any("cell_timeout" in e.detail for e in retries)
        assert_grids_equal(grid, oracle, keys=[c.key for c in configs])


# -- the shareable fleet cache -------------------------------------------------


class TestFleetCache:
    def test_second_engine_served_from_shared_cache(self, tmp_path, workload):
        configs = [
            SchedulerConfig("fcfs", "easy"),
            SchedulerConfig("psrs", "easy"),
            SchedulerConfig("gg", "list"),
        ]
        with in_thread_server(cache_dir=str(tmp_path / "fleet")) as server:
            first = ExperimentEngine(
                workers=1, cache=tmp_path / "c1", remote_cache=_address(server)
            )
            grid1 = first.run(workload[:30], total_nodes=256, configs=configs)
            assert first.stats.simulated == len(configs)
            assert first.cache.remote_hits == 0  # nothing to read yet
            # Write-back populated the fleet store.
            assert list((tmp_path / "fleet").rglob("*.json"))

            second = ExperimentEngine(
                workers=1, cache=tmp_path / "c2", remote_cache=_address(server)
            )
            grid2 = second.run(workload[:30], total_nodes=256, configs=configs)
            first.cache.remote.close()
            second.cache.remote.close()
        # Every cell came over the wire: no recomputation, no local hit.
        assert second.stats.simulated == 0
        assert second.cache.remote_hits == len(configs)
        assert grid2.fingerprints == grid1.fingerprints
        assert_grids_equal(grid2, grid1)
        # Read-through wrote the entries into the second local cache.
        warm = ExperimentEngine(workers=1, cache=tmp_path / "c2")
        warm.run(workload[:30], total_nodes=256, configs=configs)
        assert warm.stats.cache_hits == len(configs)

    def test_poisoned_remote_entry_never_enters_the_grid(
        self, tmp_path, workload, oracle
    ):
        config = SchedulerConfig("fcfs", "easy")
        jobs = workload[:40]
        fingerprint = cell_fingerprint(
            fingerprint_jobs(jobs), config, total_nodes=256, weighted=False
        )
        fleet = LocalDirStore(tmp_path / "fleet")
        fleet.save(fingerprint, "{torn garbage, never valid JSON")
        with in_thread_server(cache_dir=str(tmp_path / "fleet")) as server:
            engine = ExperimentEngine(
                workers=1, cache=tmp_path / "local", remote_cache=_address(server)
            )
            grid = engine.run(jobs, total_nodes=256, configs=[config])
            engine.cache.remote.close()
        # The poisoned entry was rejected, not trusted and not quarantined
        # into the local cache; the cell was recomputed correctly.
        assert engine.cache.remote_rejected >= 1
        assert engine.cache.remote_hits == 0
        assert engine.stats.simulated == 1
        assert grid.fingerprints[config.key] == fingerprint
        assert_grids_equal(grid, oracle, keys=[config.key])
        # The recomputed (valid) cell is what the local store now holds.
        assert ResultCache(tmp_path / "local").get(fingerprint) is not None

    def test_unreachable_remote_cache_degrades_to_local_only(
        self, tmp_path, workload, oracle
    ):
        config = SchedulerConfig("fcfs", "easy")
        engine = ExperimentEngine(
            workers=1, cache=tmp_path / "local", remote_cache=_dead_address()
        )
        engine.cache.remote.timeout = 0.5  # keep the first failed dial quick
        grid = engine.run(workload[:40], total_nodes=256, configs=[config])
        assert engine.stats.simulated == 1
        assert engine.cache.remote_hits == 0
        assert engine.cache.remote.errors >= 1
        assert not engine.cache.remote.connected
        assert_grids_equal(grid, oracle, keys=[config.key])

    def test_remote_store_miss_vs_unreachable_is_observable(self, tmp_path):
        with in_thread_server(cache_dir=str(tmp_path / "fleet")) as server:
            store = RemoteCacheStore(_address(server))
            assert store.load("ab" * 32) is None  # genuine miss
            assert store.connected
            assert store.errors == 0
            store.save("ab" * 32, '{"version": 0}')
            assert store.load("ab" * 32) == '{"version": 0}'
            store.close()
        dead = RemoteCacheStore(_dead_address(), timeout=0.5)
        assert dead.load("ab" * 32) is None
        assert not dead.connected
        assert dead.errors >= 1


# -- run journals surface the backend (satellite) ------------------------------


class TestJournalBackendSurfacing:
    def test_list_runs_reports_execution_backend(self, tmp_path, workload, oracle):
        """A journal from a sharded-pool run (an execution backend since
        removed) is still listed, verified and resumed."""
        from repro.experiments.journal import (
            RunJournal,
            list_runs,
            read_journal,
            verify_run,
        )

        configs = [
            SchedulerConfig("fcfs", "easy"),
            SchedulerConfig("psrs", "easy"),
            SchedulerConfig("fcfs", "list"),
        ]
        kwargs = dict(total_nodes=256, configs=configs)
        with ExperimentEngine(workers=2, cache=tmp_path) as engine:
            engine.run(workload[:40], **kwargs)
            cache = engine.cache
        (summary,) = list_runs(tmp_path / "runs")
        assert summary.backend == "local"
        # Rewrite it as the old run left it when it died after one cell.
        replay = read_journal(summary.path)
        done = replay.cells[configs[0].key]
        with RunJournal.create(
            summary.path, {**replay.manifest, "execution_backend": "sharded"}
        ) as journal:
            journal.record_cell(
                done.key,
                "completed",
                fingerprint=done.fingerprint,
                objective=done.objective,
            )
        for config in configs[1:]:
            cache.path(replay.cells[config.key].fingerprint).unlink()

        (summary,) = list_runs(tmp_path / "runs")
        assert summary.run_id == replay.run_id
        assert summary.backend == "sharded"
        assert "[sharded]" in summary.describe()
        audit = verify_run(summary.run_id, journal_dir=tmp_path / "runs", cache=cache)
        assert audit.ok and audit.backend == "sharded"

        with ExperimentEngine(workers=2, cache=tmp_path) as engine:
            grid = engine.resume(summary.run_id, workload[:40], **kwargs)
            assert engine.stats.backend == "local-pool"
            assert engine.stats.cache_hits == 1
        assert_grids_equal(grid, oracle, keys=[c.key for c in configs])
        (summary,) = list_runs(tmp_path / "runs")
        assert summary.run_id == replay.run_id
        assert summary.status == "complete"
        assert summary.backend == "sharded"  # a resume keeps the manifest

        # ...but nothing new can ask for it.
        from repro.experiments.cli import main

        with pytest.raises(ValueError, match="execution_backend must be"):
            ExperimentEngine(execution_backend="sharded")
        with pytest.raises(SystemExit) as exit_info:
            main(["table3", "--backend-exec", "sharded"])
        assert exit_info.value.code == 2

    def test_backend_choice_does_not_perturb_run_ids(self, tmp_path, workload):
        """Backend identity is manifest metadata, never run-id input: the
        same grid resumes across backends."""
        local = ExperimentEngine(workers=1, cache=tmp_path / "a")
        remote = ExperimentEngine(
            workers=2,
            cache=tmp_path / "b",
            execution_backend="remote",
            connect=[_dead_address()],
        )
        kwargs = dict(total_nodes=256)
        assert local.run_id_for(workload[:30], **kwargs) == remote.run_id_for(
            workload[:30], **kwargs
        )

    def test_verify_run_flags_cells_only_in_remote_cache(self, tmp_path, workload):
        from repro.experiments.journal import list_runs, verify_run

        configs = [SchedulerConfig("fcfs", "easy"), SchedulerConfig("psrs", "easy")]
        with in_thread_server(cache_dir=str(tmp_path / "fleet")) as server:
            engine = ExperimentEngine(
                workers=1, cache=tmp_path / "local", remote_cache=_address(server)
            )
            engine.run(workload[:30], total_nodes=256, configs=configs)
            engine.cache.remote.close()
            run_id = list_runs(tmp_path / "local" / "runs")[0].run_id

            # Evict the local copies: the cells now live only in the fleet.
            for entry in (tmp_path / "local").rglob("*.json"):
                entry.unlink()

            # While the fleet is reachable the run audits consistent: the
            # cells are remote-backed, not missing.
            audit = verify_run(
                run_id,
                journal_dir=tmp_path / "local" / "runs",
                cache=ResultCache(tmp_path / "local"),
            )
            assert audit.ok
            assert audit.remote_backed == len(configs)
            assert audit.remote_only == []
            assert "remote cache" in audit.describe()

        # Fleet gone: the same audit degrades to "unverifiable", loudly
        # but without inventing an inconsistency.
        audit = verify_run(
            run_id,
            journal_dir=tmp_path / "local" / "runs",
            cache=ResultCache(tmp_path / "local"),
        )
        assert audit.ok
        assert audit.remote_backed == 0
        assert len(audit.remote_only) == len(configs)
        assert "UNVERIFIABLE" in audit.describe()

        # Opting out of the probe behaves like the fleet being gone.
        audit = verify_run(
            run_id,
            journal_dir=tmp_path / "local" / "runs",
            cache=ResultCache(tmp_path / "local"),
            check_remote=False,
        )
        assert len(audit.remote_only) == len(configs)


# -- CLI wiring ----------------------------------------------------------------


class TestCliWiring:
    def test_remote_needs_connect(self):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["table3", "--backend-exec", "remote"])

    def test_connect_needs_remote(self):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["table3", "--connect", "127.0.0.1:1"])

    def test_remote_cache_needs_local_cache(self):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["table3", "--remote-cache", "127.0.0.1:1", "--no-cache"])
