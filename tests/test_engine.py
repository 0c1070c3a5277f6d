"""Tests for the parallel experiment engine, its cache, and the open registry."""

import inspect
import json
import multiprocessing
import os
import queue
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.analysis.persistence import append_events
from repro.core.scheduler import Scheduler
from repro.experiments.backends.cache import LocalDirStore
from repro.experiments.engine import (
    CACHE_VERSION,
    ExperimentEngine,
    ResultCache,
    cell_fingerprint,
    fingerprint_jobs,
)
from repro.failures import FailureTrace, NodeFailure, mtbf_trace
from repro.experiments.journal import (
    JournalError,
    RunInterrupted,
    RunJournal,
    read_journal,
)
from repro.experiments.lifecycle import RunStats
from repro.experiments.paper import probabilistic_workload
from repro.experiments.pool import PoolRun, retry_pause
from repro.experiments.runner import (
    GridResult,
    TimingScheduler,
    run_grid,
    simulate_cell,
)
from repro.experiments.tables import format_grid
from repro.schedulers.baselines import KeyOrderPolicy
from repro.schedulers.registry import (
    SchedulerConfig,
    paper_configurations,
    register_discipline,
    register_row,
    registered_columns,
    registered_configurations,
    registered_rows,
    unregister_row,
)
from tests.conftest import failure_spec, make_jobs


@pytest.fixture(scope="module")
def workload():
    """The probabilistic workload of the parallel-equivalence requirement."""
    return probabilistic_workload(110, seed=7)


# -- fingerprints --------------------------------------------------------------


class TestFingerprints:
    def test_stable_across_calls(self, workload):
        assert fingerprint_jobs(workload) == fingerprint_jobs(list(workload))

    def test_sensitive_to_any_job_field(self, workload):
        base = fingerprint_jobs(workload)
        perturbed = list(workload)
        job = perturbed[5]
        perturbed[5] = type(job)(
            job_id=job.job_id,
            submit_time=job.submit_time,
            nodes=job.nodes,
            runtime=job.runtime + 1e-9,
            estimate=job.estimate,
            user=job.user,
            weight=job.weight,
        )
        assert fingerprint_jobs(perturbed) != base

    def test_cell_fingerprint_axes(self, workload):
        digest = fingerprint_jobs(workload)
        cfg = SchedulerConfig("fcfs", "easy")
        base = cell_fingerprint(digest, cfg, total_nodes=256, weighted=False)
        assert base == cell_fingerprint(digest, cfg, total_nodes=256, weighted=False)
        assert base != cell_fingerprint(digest, cfg, total_nodes=128, weighted=False)
        assert base != cell_fingerprint(digest, cfg, total_nodes=256, weighted=True)
        assert base != cell_fingerprint(
            digest, SchedulerConfig("psrs", "easy"), total_nodes=256, weighted=False
        )
        assert base != cell_fingerprint(
            digest, cfg, total_nodes=256, weighted=False, recompute_threshold=0.5
        )


# -- the on-disk cache ---------------------------------------------------------


class TestResultCache:
    def test_miss_then_roundtrip(self, tmp_path, workload):
        cache = ResultCache(tmp_path)
        grid = run_grid(workload[:30], total_nodes=256,
                        configs=[SchedulerConfig("fcfs", "easy")])
        cell = grid.cells["fcfs/easy"]
        assert cache.get("ab" * 32) is None
        cache.put("ab" * 32, cell)
        loaded = cache.get("ab" * 32)
        assert loaded is not None
        assert loaded.objective == cell.objective
        assert loaded.config == cell.config
        assert loaded.makespan == cell.makespan

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.path("cd" * 32)
        path.parent.mkdir(parents=True)
        path.write_text("{not json", encoding="utf-8")
        assert cache.get("cd" * 32) is None

    def test_version_skew_reads_as_miss(self, tmp_path, workload):
        cache = ResultCache(tmp_path)
        grid = run_grid(workload[:20], total_nodes=256,
                        configs=[SchedulerConfig("fcfs", "list")])
        cache.put("ef" * 32, grid.cells["fcfs/list"])
        path = cache.path("ef" * 32)
        payload = path.read_text(encoding="utf-8").replace(
            f'"version": {CACHE_VERSION}', f'"version": {CACHE_VERSION + 1}'
        )
        path.write_text(payload, encoding="utf-8")
        assert cache.get("ef" * 32) is None
        # Version skew means this library version can never serve the entry:
        # the miss evicts it so the slot is rewritten instead of re-read and
        # re-rejected on every run.
        assert not path.exists()
        assert not path.with_suffix(".corrupt").exists()

    def test_older_version_entries_are_evicted(self, tmp_path, workload):
        """Entries written before a CACHE_VERSION bump (e.g. the v3 → v4
        scenario-digest bump) read as misses and are evicted — both
        through get() and through prune()."""
        cache = ResultCache(tmp_path)
        grid = run_grid(workload[:20], total_nodes=256,
                        configs=[SchedulerConfig("fcfs", "list")])
        for key, old_version in (("ab" * 32, CACHE_VERSION - 1), ("ba" * 32, 1)):
            cache.put(key, grid.cells["fcfs/list"])
            path = cache.path(key)
            path.write_text(
                path.read_text(encoding="utf-8").replace(
                    f'"version": {CACHE_VERSION}', f'"version": {old_version}'
                ),
                encoding="utf-8",
            )
            assert cache.status(key) == "stale"
        assert cache.get("ab" * 32) is None
        assert not cache.path("ab" * 32).exists()
        stats = cache.prune()
        assert stats.stale_evicted == 1  # the one get() had not evicted yet
        assert not cache.path("ba" * 32).exists()

    def test_status_is_nondestructive(self, tmp_path, workload):
        cache = ResultCache(tmp_path)
        grid = run_grid(workload[:20], total_nodes=256,
                        configs=[SchedulerConfig("fcfs", "list")])
        cache.put("aa" * 32, grid.cells["fcfs/list"])
        stale = cache.path("bb" * 32)
        stale.parent.mkdir(parents=True, exist_ok=True)
        stale.write_text(
            cache.path("aa" * 32).read_text(encoding="utf-8").replace(
                f'"version": {CACHE_VERSION}', f'"version": {CACHE_VERSION + 1}'
            ),
            encoding="utf-8",
        )
        corrupt = cache.path("cc" * 32)
        corrupt.parent.mkdir(parents=True, exist_ok=True)
        corrupt.write_text("{not json", encoding="utf-8")
        assert cache.status("aa" * 32) == "hit"
        assert cache.status("bb" * 32) == "stale"
        assert cache.status("cc" * 32) == "corrupt"
        assert cache.status("dd" * 32) == "miss"
        # status() inspects without evicting or quarantining anything.
        assert stale.exists() and corrupt.exists()

    def test_prune_sweeps_stale_corrupt_and_tmp(self, tmp_path, workload):
        import os

        cache = ResultCache(tmp_path)
        grid = run_grid(workload[:20], total_nodes=256,
                        configs=[SchedulerConfig("fcfs", "list")])
        cache.put("aa" * 32, grid.cells["fcfs/list"])
        stale = cache.path("bb" * 32)
        stale.parent.mkdir(parents=True, exist_ok=True)
        stale.write_text(
            cache.path("aa" * 32).read_text(encoding="utf-8").replace(
                f'"version": {CACHE_VERSION}', f'"version": {CACHE_VERSION + 1}'
            ),
            encoding="utf-8",
        )
        corrupt = cache.path("cc" * 32)
        corrupt.parent.mkdir(parents=True, exist_ok=True)
        corrupt.write_text("{not json", encoding="utf-8")
        old_tmp = stale.parent / ".leftover.12345.tmp"
        old_tmp.write_text("partial", encoding="utf-8")
        ancient = 10_000.0
        os.utime(old_tmp, (ancient, ancient))
        fresh_tmp = stale.parent / ".inflight.12346.tmp"
        fresh_tmp.write_text("partial", encoding="utf-8")

        stats = cache.prune()
        assert stats.stale_evicted == 1 and not stale.exists()
        assert stats.quarantined == 1 and not corrupt.exists()
        assert corrupt.with_suffix(".corrupt").exists()
        assert stats.tmp_removed == 1 and not old_tmp.exists()
        assert fresh_tmp.exists()  # an in-flight put must survive the sweep
        assert stats.scanned >= 3
        assert "stale" in stats.describe()
        # The healthy entry is untouched and still serves.
        assert cache.get("aa" * 32) is not None

    def test_corrupt_entry_quarantined_not_retried(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.path("cd" * 32)
        path.parent.mkdir(parents=True)
        path.write_text("{not json", encoding="utf-8")
        assert cache.get("cd" * 32) is None
        assert not path.exists()
        assert path.with_suffix(".corrupt").exists()

    def test_wrong_shape_entry_quarantined(self, tmp_path):
        import json

        cache = ResultCache(tmp_path)
        path = cache.path("ee" * 32)
        path.parent.mkdir(parents=True)
        # Right version, but the cell payload is missing entirely.
        path.write_text(json.dumps({"version": CACHE_VERSION}), encoding="utf-8")
        assert cache.get("ee" * 32) is None
        assert path.with_suffix(".corrupt").exists()

    def test_put_finalizes_atomically(self, tmp_path, workload):
        cache = ResultCache(tmp_path)
        grid = run_grid(workload[:20], total_nodes=256,
                        configs=[SchedulerConfig("fcfs", "list")])
        cache.put("ff" * 32, grid.cells["fcfs/list"])
        entry_dir = cache.path("ff" * 32).parent
        # os.replace finalization never leaves partial temp files behind.
        assert [p.name for p in entry_dir.iterdir()] == [f"{'ff' * 32}.json"]


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


# -- parallel equivalence and cache-served re-runs -----------------------------


class TestParallelEquivalence:
    def test_workers4_matches_serial_and_warm_cache_skips_all(
        self, tmp_path, workload
    ):
        serial = run_grid(workload, total_nodes=256)

        engine = ExperimentEngine(workers=4, cache=tmp_path / "cache")
        parallel = engine.run(workload, total_nodes=256)
        assert engine.stats.simulated == 13
        assert engine.stats.cache_hits == 0
        assert list(parallel.cells) == list(serial.cells)
        for key in serial.cells:
            # bit-identical objectives, not approx: same pure computation.
            assert parallel.cells[key].objective == serial.cells[key].objective
            assert parallel.cells[key].makespan == serial.cells[key].makespan

        warm = ExperimentEngine(workers=4, cache=tmp_path / "cache")
        again = warm.run(workload, total_nodes=256)
        assert warm.stats.simulated == 0
        assert warm.stats.cache_hits == 13
        for key in serial.cells:
            assert again.cells[key].objective == serial.cells[key].objective

    def test_partial_cache_simulates_only_missing_cells(self, tmp_path, workload):
        subset = list(paper_configurations())[:3]
        first = ExperimentEngine(workers=1, cache=tmp_path)
        first.run(workload, total_nodes=256, configs=subset)
        full = ExperimentEngine(workers=2, cache=tmp_path)
        full.run(workload, total_nodes=256)
        assert full.stats.cache_hits == 3
        assert full.stats.simulated == 10

    def test_progress_callback_in_config_order(self, workload):
        configs = list(paper_configurations())
        seen = []
        ExperimentEngine(workers=4).run(
            workload[:40],
            total_nodes=256,
            configs=configs,
            progress=lambda cfg, cell: seen.append(cfg.key),
        )
        assert seen == [c.key for c in configs]


class TestWorkloadStore:
    def test_store_on_matches_store_off_over_full_registry(self, workload):
        """Zero-copy dispatch changes bytes on the wire, never objectives.

        The full registry grid (not just the paper's 13 cells) dispatched
        by digest through the store (``workers=2``) must equal the serial
        in-process path (``workers=1``, which bypasses the store and holds
        the live job list) cell for cell, bit for bit.
        """
        configs = list(registered_configurations())
        jobs = workload[:40]
        store_engine = ExperimentEngine(workers=2)
        with_store = store_engine.run(jobs, total_nodes=256, configs=configs)
        assert store_engine.stats.backend == "local-pool"
        assert store_engine.stats.degraded_cells == 0
        without_store = ExperimentEngine(workers=1).run(
            jobs, total_nodes=256, configs=configs
        )
        assert list(with_store.cells) == list(without_store.cells)
        for key in with_store.cells:
            assert (
                with_store.cells[key].objective
                == without_store.cells[key].objective
            )
            assert (
                with_store.cells[key].makespan == without_store.cells[key].makespan
            )

    def test_store_registers_once_per_digest(self, workload):
        from repro.experiments.workload_store import WorkloadStore

        store = WorkloadStore()
        digest = fingerprint_jobs(workload)
        first = store.register(digest, workload)
        again = store.register(digest, workload)
        assert first is again  # packed once, reused
        assert store.get(digest) is first
        assert store.get("no-such-digest") is None

    def test_store_evicts_oldest_beyond_capacity(self, workload):
        from repro.experiments.workload_store import WorkloadStore

        store = WorkloadStore()
        for i in range(WorkloadStore.MAX_ENTRIES + 2):
            store.register(f"digest-{i}", workload[:5])
        assert len(store) == WorkloadStore.MAX_ENTRIES
        assert store.get("digest-0") is None  # oldest evicted
        assert store.get(f"digest-{WorkloadStore.MAX_ENTRIES + 1}") is not None

    def test_unseeded_digest_outside_a_pool_is_refused(self):
        """Outside a pool worker there is no spool to hydrate from: an
        unknown digest is a loud error, never a wrong workload."""
        from repro.experiments import workload_store as ws

        assert ws._SPOOL_DIR is None
        with pytest.raises(RuntimeError, match="not seeded"):
            ws.resolve_worker_workload("missing-digest")

    def test_digest_backward_compatible_with_inline_formula(self, workload):
        """The streaming refactor must not move anyone's cache: the shared
        formatter reproduces the historical inline fingerprint byte for
        byte (CACHE_VERSION stays at its current value for the same
        reason)."""
        import hashlib

        hasher = hashlib.sha256()
        for job in workload:
            record = (
                f"{job.job_id},{job.submit_time!r},{job.nodes},{job.runtime!r},"
                f"{job.estimate!r},{job.user},{job.weight!r}\n"
            )
            hasher.update(record.encode("ascii"))
        assert fingerprint_jobs(workload) == hasher.hexdigest()
        assert CACHE_VERSION == 4  # v4: scenario digest joined the fingerprint


class TestProgressEvents:
    def test_event_stream_shape(self, tmp_path, workload):
        events = []
        engine = ExperimentEngine(cache=tmp_path, on_event=events.append)
        configs = [SchedulerConfig("fcfs", "easy"), SchedulerConfig("fcfs", "list")]
        engine.run(workload[:30], total_nodes=256, configs=configs)
        kinds = [e.kind for e in events]
        assert kinds[0] == "grid-started"
        assert kinds[-1] == "grid-finished"
        assert kinds.count("cell-started") == 2
        assert kinds.count("cell-finished") == 2
        finished = [e for e in events if e.kind == "cell-finished"]
        assert all(e.wall_time > 0 and e.objective > 0 for e in finished)

        events.clear()
        engine2 = ExperimentEngine(cache=tmp_path, on_event=events.append)
        engine2.run(workload[:30], total_nodes=256, configs=configs)
        assert [e.kind for e in events if e.key] == ["cache-hit", "cache-hit"]
        assert all(e.cached for e in events if e.key)

    def test_events_archive_as_jsonl(self, tmp_path, workload):
        import json

        events = []
        ExperimentEngine(on_event=events.append).run(
            workload[:20], total_nodes=256, configs=[SchedulerConfig("gg", "list")]
        )
        target = tmp_path / "events.jsonl"
        assert append_events(events, target) == len(events)
        lines = [json.loads(line) for line in target.read_text().splitlines()]
        assert len(lines) == len(events)
        assert lines[0]["kind"] == "grid-started"
        # appending accumulates across runs (resumable logs)
        append_events(events, target)
        assert len(target.read_text().splitlines()) == 2 * len(events)

    def test_event_lines_are_the_asdict_encoding_byte_for_byte(
        self, tmp_path, workload
    ):
        """The fixed field tuple replaced ``dataclasses.asdict`` on the
        ``--events`` path; the JSONL format did not move."""
        import dataclasses
        import json

        from repro.analysis.persistence import EVENT_FIELDS, event_line
        from repro.experiments.engine import ProgressEvent

        assert EVENT_FIELDS == tuple(
            f.name for f in dataclasses.fields(ProgressEvent)
        )
        events = []
        configs = [SchedulerConfig("fcfs", "easy"), SchedulerConfig("fcfs", "list")]
        for _ in range(2):  # simulated, then served from the cache
            ExperimentEngine(cache=tmp_path, on_event=events.append).run(
                workload[:20], total_nodes=256, configs=configs
            )
        events.append(
            ProgressEvent("cell-retry", "w", True, key="a/b", wall_time=0.25,
                          detail="attempt 1/2: worker crashed \u2014 \"quoted\"")
        )
        assert {e.kind for e in events} >= {
            "grid-started", "cell-started", "cell-finished", "cache-hit",
            "grid-finished", "cell-retry",
        }
        for event in events:
            assert event_line(event) == json.dumps(dataclasses.asdict(event)) + "\n"
        target = tmp_path / "events.jsonl"
        append_events(events, target)
        assert target.read_text(encoding="utf-8") == "".join(
            json.dumps(dataclasses.asdict(event)) + "\n" for event in events
        )

    def test_cli_events_log_appends_across_invocations(self, tmp_path):
        import json

        from repro.analysis.persistence import EVENT_FIELDS
        from repro.experiments import cli

        log = tmp_path / "ev.jsonl"
        argv = ["table4", "--scale", "40", "--cache-dir", str(tmp_path / "c"),
                "--events", str(log)]
        assert cli.main(argv) == 0
        first = log.read_text(encoding="utf-8").splitlines()
        assert cli.main(argv) == 0  # all cache hits, appended to the same log
        lines = log.read_text(encoding="utf-8").splitlines()
        assert lines[: len(first)] == first and len(lines) > len(first)
        records = [json.loads(line) for line in lines]
        assert all(tuple(record) == EVENT_FIELDS for record in records)
        kinds = [record["kind"] for record in records]
        assert kinds[0] == "grid-started" and kinds[-1] == "grid-finished"
        assert "cell-finished" in kinds[: len(first)]
        assert "cell-finished" not in kinds[len(first):]


# -- one pool per engine ---------------------------------------------------------


THREE_CELLS = [
    SchedulerConfig("fcfs", "easy"),
    SchedulerConfig("fcfs", "list"),
    SchedulerConfig("psrs", "easy"),
]


#: Where :func:`_probe_order` logs; set before a pool forks, so its workers
#: inherit it.
_PROBE_LOG = None


def _probe_order(total_nodes, weight, threshold):
    """FCFS that logs who built it: pid, in a pool worker or not, how many
    workloads that process has hydrated and how many it holds."""
    from repro.experiments import workload_store as ws

    with open(_PROBE_LOG, "a") as handle:
        handle.write(
            f"{os.getpid()} {int(_in_pool_worker())} "
            f"{ws._WORKER_HYDRATIONS} {len(ws._WORKER_WORKLOADS)}\n"
        )
    if _in_pool_worker():
        time.sleep(0.05)  # long enough that every worker gets a cell
    return KeyOrderPolicy(lambda job: job.submit_time, "probe")


def _probe_lines():
    with open(_PROBE_LOG) as handle:
        lines = [tuple(int(field) for field in line.split()) for line in handle]
    open(_PROBE_LOG, "w").close()
    return lines


def _kept_pool(engine):
    assert engine._pool is not None
    return engine._pool


def _worker_processes(pool):
    return list((pool.executor._processes or {}).values())


def _assert_all_dead(processes):
    for proc in processes:
        proc.join(timeout=10)
        # The executor's manager thread reaps its workers too: when it wins
        # the waitpid, this thread sees the exit code a moment later.
        deadline = time.monotonic() + 2
        while proc.is_alive() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not proc.is_alive()


@pytest.fixture
def probe_row(tmp_path, monkeypatch):
    monkeypatch.setattr(
        "tests.test_engine._PROBE_LOG", str(tmp_path / "probe.log")
    )
    (tmp_path / "probe.log").touch()
    register_row("probe", _probe_order)
    yield [SchedulerConfig("probe", column) for column in registered_columns()]
    unregister_row("probe")


class TestPoolLifetime:
    def test_two_digests_one_pool_one_hydration_per_worker_per_digest(
        self, workload, probe_row, monkeypatch
    ):
        from repro.experiments import workload_store as ws

        configs = [*probe_row, SchedulerConfig("fcfs", "easy"),
                   SchedulerConfig("fcfs", "list"), SchedulerConfig("psrs", "easy")]
        # Forked workers start from this process's cache and counter, which
        # in-process seeding by earlier tests may have left non-empty.
        monkeypatch.setattr(ws, "_WORKER_WORKLOADS", {})
        monkeypatch.setattr(ws, "_WORKER_HYDRATIONS", 0)
        with ExperimentEngine(workers=2) as engine:
            engine.run(workload[:30], total_nodes=256, configs=configs)
            pool = _kept_pool(engine)
            pids = {proc.pid for proc in _worker_processes(pool)}
            assert len(pids) == 2
            first = _probe_lines()
            engine.run(workload[30:70], total_nodes=256, configs=configs)
            second = _probe_lines()
            assert engine.stats.backend == "local-pool"
            assert engine.stats.degraded_cells == engine.stats.retries == 0
            # The same pool object, the same worker processes.
            assert _kept_pool(engine) is pool
            assert {proc.pid for proc in _worker_processes(pool)} == pids
            assert len(pool.spooled) == 2  # spooled once per digest
        for grid, lines in enumerate((first, second), start=1):
            assert len(lines) == len(probe_row)
            for pid, in_worker, hydrations, held in lines:
                assert pid in pids and in_worker
                # Never unpacked twice: a worker has hydrated exactly the
                # digests it holds, at most one per grid so far.
                assert 1 <= hydrations == held <= grid
        # Both workers served the second grid (each probe cell sleeps), so
        # some worker hydrated both digests — once each.
        assert max(held for *_, held in second) == 2

    @pytest.mark.parametrize("wreck", ["other-workload", "garbage"])
    def test_spool_file_that_is_not_its_digest_is_refused(
        self, workload, wreck
    ):
        from repro.core.packing import pack_jobs
        from repro.experiments.workload_store import _spool_path, spool_workload

        configs = [SchedulerConfig("fcfs", "easy"), SchedulerConfig("fcfs", "list")]
        events = []
        with ExperimentEngine(
            workers=2, on_event=events.append, max_retries=1, retry_backoff=0.01
        ) as engine:
            engine.run(workload[:20], total_nodes=256, configs=configs)
            pool = _kept_pool(engine)
            victim = workload[20:50]
            digest = fingerprint_jobs(victim)
            # Plant the wrong bytes under the digest the next grid will ask
            # for, and make the driver believe it spooled them itself.
            if wreck == "garbage":
                with open(_spool_path(pool.dir, digest), "wb") as handle:
                    handle.write(b"\x80\x05not a pickle at all")
            else:
                spool_workload(pool.dir, digest, pack_jobs(workload[:20]))
            pool.spooled.add(digest)
            grid = engine.run(victim, total_nodes=256, configs=configs)
            stats = engine.stats
        # Every worker attempt failed; the serial fallback, which holds the
        # live jobs, completed the grid with the right numbers.
        assert stats.retries == len(configs) and stats.degraded_cells == len(configs)
        serial = ExperimentEngine(workers=1).run(
            victim, total_nodes=256, configs=configs
        )
        for key in serial.cells:
            assert grid.cells[key].objective == serial.cells[key].objective
        retries = [e for e in events if e.kind == "cell-retry"]
        assert retries and all("cell raised" in e.detail for e in retries)
        if wreck == "other-workload":
            assert all("does not hold the workload" in e.detail for e in retries)

    def test_row_registered_between_runs_is_simulated_in_a_worker(
        self, tmp_path, monkeypatch, workload
    ):
        monkeypatch.setattr(
            "tests.test_engine._PROBE_LOG", str(tmp_path / "probe.log")
        )
        with ExperimentEngine(workers=2) as engine:
            engine.run(workload[:20], total_nodes=256, configs=THREE_CELLS)
            before = _worker_processes(_kept_pool(engine))
            register_row("probe", _probe_order, columns=("easy", "list"))
            try:
                configs = [
                    SchedulerConfig("probe", "easy"),
                    SchedulerConfig("probe", "list"),
                    *THREE_CELLS,
                ]
                grid = engine.run(workload[:20], total_nodes=256, configs=configs)
                assert engine.stats.degraded_cells == engine.stats.retries == 0
                assert engine.stats.pool_rebuilds == 0
                after = _worker_processes(_kept_pool(engine))
            finally:
                unregister_row("probe")
            assert grid.cells["probe/easy"].objective > 0
        # Workers forked before the registration could not have built the
        # row: the pool was replaced, and the new one did.
        _assert_all_dead(before)
        lines = _probe_lines()
        assert len(lines) == 2
        assert {pid for pid, *_ in lines} <= {proc.pid for proc in after}
        assert all(in_worker for _, in_worker, *_ in lines)

    def test_close_is_idempotent_and_leaves_nothing_behind(self, workload):
        engine = ExperimentEngine(workers=2)
        engine.close()  # nothing started yet
        engine.run(workload[:20], total_nodes=256, configs=THREE_CELLS)
        pool = _kept_pool(engine)
        scratch, processes = pool.dir, _worker_processes(pool)
        assert os.path.isdir(scratch) and len(processes) == 2
        engine.close()
        engine.close()
        assert engine._pool is None
        _assert_all_dead(processes)
        assert not os.path.exists(scratch)
        # Closed is not dead: the next parallel run starts a new pool.
        grid = engine.run(workload[:25], total_nodes=256, configs=THREE_CELLS)
        assert engine.stats.backend == "local-pool"
        assert engine.stats.degraded_cells == 0 and len(grid.cells) == 3
        processes = _worker_processes(_kept_pool(engine))
        scratch = _kept_pool(engine).dir
        del engine, pool  # a dropped engine is closed by its finalizer
        _assert_all_dead(processes)
        assert not os.path.exists(scratch)

    @pytest.mark.parametrize("max_pool_rebuilds", [5, 0])
    def test_crashed_worker_is_rebuilt_and_the_next_run_is_healthy(
        self, workload, max_pool_rebuilds
    ):
        register_row("crashy", _crashy_order, columns=("easy",))
        try:
            with ExperimentEngine(
                workers=2,
                max_retries=1,
                retry_backoff=0.01,
                max_pool_rebuilds=max_pool_rebuilds,
            ) as engine:
                grid = engine.run(
                    workload[:30],
                    total_nodes=256,
                    configs=[SchedulerConfig("crashy", "easy"), *THREE_CELLS],
                )
                assert grid.cells["crashy/easy"].objective > 0
                assert engine.stats.pool_rebuilds >= 1
                assert engine.stats.degraded_cells >= 1
                if max_pool_rebuilds:
                    # Rebuilt inside the run, finished its cells: kept
                    # (the last rebuild forks on its first cell).
                    assert _kept_pool(engine).dir is not None
                else:
                    # Out of resets: the pool gave up and is gone.
                    assert engine._pool is None
                engine.run(workload[30:60], total_nodes=256, configs=THREE_CELLS)
                assert engine.stats.backend == "local-pool"
                assert engine.stats.simulated == 3
                assert engine.stats.retries == engine.stats.pool_rebuilds == 0
                assert engine.stats.degraded_cells == 0
                assert all(p.is_alive() for p in _worker_processes(_kept_pool(engine)))
        finally:
            unregister_row("crashy")

    def test_hung_worker_is_rebuilt_and_the_next_run_is_healthy(self, workload):
        register_row("sleepy", _sleepy_order, columns=("easy",))
        try:
            with ExperimentEngine(
                workers=2, cell_timeout=1.0, max_retries=0, max_pool_rebuilds=5
            ) as engine:
                engine.run(
                    workload[:20],
                    total_nodes=256,
                    configs=[SchedulerConfig("sleepy", "easy"), *THREE_CELLS],
                )
                assert engine.stats.pool_rebuilds >= 1
                assert engine.stats.degraded_cells >= 1
                engine.run(workload[20:45], total_nodes=256, configs=THREE_CELLS)
                assert engine.stats.retries == engine.stats.pool_rebuilds == 0
                assert engine.stats.degraded_cells == 0
                processes = _worker_processes(_kept_pool(engine))
                assert all(p.is_alive() for p in processes)
        finally:
            unregister_row("sleepy")
        _assert_all_dead(processes)

    def test_interrupted_run_leaves_no_pool_behind(self, tmp_path, workload):
        borrowed, seen = [], []
        engine = ExperimentEngine(workers=2, journal_dir=tmp_path)
        borrow = engine.borrow_pool

        def spying_borrow():
            borrowed.append(borrow())
            return borrowed[-1]

        def interrupt_once(event):
            if event.kind == "cell-finished" and not seen:
                seen.extend(_worker_processes(borrowed[0]))
                os.kill(os.getpid(), signal.SIGINT)

        engine.borrow_pool = spying_borrow
        engine.on_event = interrupt_once
        with pytest.raises(RunInterrupted):
            engine.run(workload[:30], total_nodes=256, configs=list(paper_configurations()))
        assert engine._pool is None
        assert borrowed[0].dir is None  # closed: scratch directory removed
        assert seen
        _assert_all_dead(seen)
        # The next run borrows a new pool and keeps it.
        engine.on_event = None
        engine.run(workload[:30], total_nodes=256, configs=THREE_CELLS)
        assert len(borrowed) == 2 and _kept_pool(engine) is borrowed[1]
        assert engine.stats.degraded_cells == 0
        engine.close()


# -- crash tolerance: retries, backoff, serial degradation ---------------------


def _in_pool_worker():
    return multiprocessing.parent_process() is not None


def _crashy_order(total_nodes, weight, threshold):
    """A scheduler that hard-kills any pool worker it runs in.

    In the parent process (the serial fallback) it behaves like FCFS, so
    the cell is computable — just never inside a worker.
    """

    def key(job):
        if _in_pool_worker():
            os._exit(1)
        return job.submit_time

    return KeyOrderPolicy(key, "crashy")


def _sleepy_order(total_nodes, weight, threshold):
    """A scheduler that hangs forever inside pool workers only."""

    def key(job):
        if _in_pool_worker():
            time.sleep(300.0)
        return job.submit_time

    return KeyOrderPolicy(key, "sleepy")


class TestCrashTolerance:
    def test_crashing_worker_retried_then_degraded_to_serial(
        self, tmp_path, workload
    ):
        register_row("crashy", _crashy_order, columns=("easy",))
        try:
            events = []
            engine = ExperimentEngine(
                workers=2,
                cache=tmp_path,
                on_event=events.append,
                max_retries=1,
                retry_backoff=0.01,
                max_pool_rebuilds=5,
            )
            configs = [
                SchedulerConfig("crashy", "easy"),
                SchedulerConfig("fcfs", "easy"),
            ]
            grid = engine.run(workload[:30], total_nodes=256, configs=configs)

            # The grid completed despite the crashing cell...
            assert set(grid.cells) == {"crashy/easy", "fcfs/easy"}
            assert grid.cells["crashy/easy"].objective > 0
            # ...after at least one charged retry and a serial fallback.
            assert engine.stats.retries >= 1
            assert engine.stats.pool_rebuilds >= 1
            assert engine.stats.degraded_cells >= 1
            kinds = [e.kind for e in events]
            assert "cell-retry" in kinds
            assert "engine-degraded" in kinds
            # The crashing cell itself was retried (a collateral victim of
            # the broken pool may also be charged — ordering is not ours).
            retries = [e for e in events if e.kind == "cell-retry"]
            crashy = [e for e in retries if e.key == "crashy/easy"]
            assert crashy
            assert all("worker crashed" in e.detail for e in crashy)
            assert all(e.wall_time > 0 for e in retries)  # backoff scheduled
            # Announced once per cell per run, however many attempts —
            # pool retries and the serial fallback included.
            started = [e.key for e in events if e.kind == "cell-started"]
            assert sorted(started) == ["crashy/easy", "fcfs/easy"]

            # The serial result is the canonical one: a plain serial engine
            # (no pool, nothing to crash) computes the same objective.
            serial = ExperimentEngine(workers=1).run(
                workload[:30], total_nodes=256, configs=configs
            )
            for key in serial.cells:
                assert grid.cells[key].objective == serial.cells[key].objective
        finally:
            unregister_row("crashy")

    def test_hung_worker_times_out_and_grid_completes(self, workload):
        register_row("sleepy", _sleepy_order, columns=("easy",))
        try:
            events = []
            engine = ExperimentEngine(
                workers=2,
                on_event=events.append,
                cell_timeout=1.0,
                max_retries=0,
                max_pool_rebuilds=5,
            )
            configs = [
                SchedulerConfig("sleepy", "easy"),
                SchedulerConfig("fcfs", "easy"),
            ]
            grid = engine.run(workload[:20], total_nodes=256, configs=configs)
            assert set(grid.cells) == {"sleepy/easy", "fcfs/easy"}
            assert engine.stats.pool_rebuilds >= 1
            assert engine.stats.degraded_cells >= 1
            degraded = next(e for e in events if e.kind == "engine-degraded")
            assert "serial" in degraded.detail
        finally:
            unregister_row("sleepy")

    def test_retry_knob_validation(self):
        with pytest.raises(ValueError, match="cell_timeout"):
            ExperimentEngine(cell_timeout=0.0)
        with pytest.raises(ValueError, match="max_retries"):
            ExperimentEngine(max_retries=-1)
        with pytest.raises(ValueError, match="retry_backoff"):
            ExperimentEngine(retry_backoff=-0.1)
        with pytest.raises(ValueError, match="max_pool_rebuilds"):
            ExperimentEngine(max_pool_rebuilds=-1)


# -- watchdog knobs --------------------------------------------------------------


class TestWatchdogKnobs:
    def test_interval_sets_interval_and_derived_timeout(self):
        engine = ExperimentEngine()
        assert engine.heartbeat_interval == 15.0
        assert engine.heartbeat_timeout == 60.0  # max(4*15, 30)
        assert ExperimentEngine(heartbeat_interval=7.0).heartbeat_timeout == 30.0
        assert ExperimentEngine(heartbeat_interval=20.0).heartbeat_timeout == 80.0

    def test_interval_none_disables_watchdog(self):
        engine = ExperimentEngine(heartbeat_interval=None)
        assert engine.heartbeat_interval is None
        assert engine.heartbeat_timeout is None

    def test_timeout_overrides_derived_budget(self):
        engine = ExperimentEngine(heartbeat_timeout=120.0)
        assert engine.heartbeat_interval == 15.0
        assert engine.heartbeat_timeout == 120.0
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            ExperimentEngine(heartbeat_timeout=0.0)


# -- the retry pause -------------------------------------------------------------


class _RunStub:
    """The slice of a ``GridRun`` that ``PoolRun.charge_retry`` writes to."""

    def __init__(self) -> None:
        self.stats = RunStats()
        self.events: list = []

    def journal_cell(self, *args, **fields) -> None:
        pass

    def emit(self, kind, **fields) -> None:
        self.events.append((kind, fields))


class TestRetryBackoff:
    def test_backoff_matches_legacy_formula(self):
        """retry_pause must reproduce base * 2**(n-1) * uniform(0.5, 1.5)
        draw for draw."""
        for failures in range(1, 6):
            new = retry_pause(0.5, failures, random.Random(42))
            legacy = 0.5 * (2 ** (failures - 1)) * random.Random(42).uniform(0.5, 1.5)
            assert new == legacy

    def test_engine_policy_matches_legacy_backoff(self):
        """The pool loop's pauses are the legacy sequence, one draw per
        retry from its rng, until the budget sends the cell to the serial
        fallback."""
        engine = ExperimentEngine(max_retries=3, retry_backoff=0.25)
        run = _RunStub()
        pool_run = PoolRun(engine, run, [(SchedulerConfig("fcfs", "easy"), "fp")])
        pool_run.rng = random.Random(9)
        for _ in range(4):
            pool_run.charge_retry("fp", "boom")
        legacy_rng = random.Random(9)
        legacy = [
            0.25 * (2 ** (attempt - 1)) * legacy_rng.uniform(0.5, 1.5)
            for attempt in range(1, 4)
        ]
        pauses = [fields["wall_time"] for kind, fields in run.events if kind == "cell-retry"]
        assert pauses == legacy
        assert run.stats.retries == 3
        assert pool_run.serial_fallback == ["fp"]


# -- the fault matrix: which detector catches what ------------------------------


REPO_ROOT = Path(__file__).resolve().parent.parent

#: Seconds a fault case may take to reach each line it prints; generous for
#: slow CI (the cases take about a second each).
FAULT_DEADLINE = 60.0

#: Seconds the driver may take to exit once its grid is done.
EXIT_DEADLINE = 10.0


@pytest.fixture
def fault_driver(tmp_path):
    """Start ``tests._fault_driver`` cases in their own sessions; the
    stdout lines arrive on a queue.  Teardown SIGKILLs each session, so
    no stopped worker outlives the test."""
    started = []

    def start(case):
        with open(tmp_path / f"{case}.stderr", "w") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-m", "tests._fault_driver", case,
                 str(tmp_path / "runs")],
                cwd=REPO_ROOT,
                env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
                stdout=subprocess.PIPE,
                stderr=stderr,
                text=True,
                start_new_session=True,
            )
        started.append(proc)
        lines = queue.Queue()

        def pump():
            for line in proc.stdout:
                lines.put(line)

        threading.Thread(target=pump, daemon=True).start()
        return proc, lines

    yield start
    for proc in started:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        proc.stdout.close()


def _next_line(lines, timeout):
    try:
        return lines.get(timeout=timeout)
    except queue.Empty:
        return None


def _run_fault_case(fault_driver, case):
    """Run one case to the end; its report.  The driver must exit within
    :data:`EXIT_DEADLINE` of finishing its grid."""
    proc, lines = fault_driver(case)
    assert _next_line(lines, FAULT_DEADLINE) == "READY\n"
    line = _next_line(lines, FAULT_DEADLINE)
    assert line is not None and line.startswith("DONE "), (case, line)
    try:
        proc.wait(timeout=EXIT_DEADLINE)
    except subprocess.TimeoutExpired:
        pytest.fail(f"{case}: the driver hangs at exit after its grid finished")
    assert proc.returncode == 0
    return json.loads(line[len("DONE "):])


def _assert_delivered_exactly_once(report):
    assert report["simulated"] == report["cells"]
    assert len(report["completed"]) == report["cells"]
    assert set(report["completed"].values()) == {1}


class TestFaultMatrix:
    """Which detector catches which worker fault.

    Each case runs a journaled two-worker grid in a subprocess (see
    ``tests/_fault_driver.py``).  The retry reasons name the detector: a
    SIGKILLed worker breaks the pool, every worker stopped at once leaves
    every heartbeat stale, and one stopped worker beside a live one is
    caught by ``cell_timeout`` alone — the live worker keeps the freshest
    heartbeat fresh.  Every finished case must also exit promptly: a
    SIGSTOPped worker ignores SIGTERM, and a surviving worker makes the
    interpreter hang at exit.
    """

    def test_sigkill_is_caught_by_the_broken_pool(self, fault_driver):
        report = _run_fault_case(fault_driver, "sigkill")
        assert report["reasons"]
        assert all(
            reason.startswith("worker crashed: BrokenProcessPool")
            for reason in report["reasons"]
        )
        assert report["pool_rebuilds"] >= 1
        _assert_delivered_exactly_once(report)

    def test_all_workers_stopped_is_caught_by_the_watchdog(self, fault_driver):
        report = _run_fault_case(fault_driver, "stop-all")
        assert report["reasons"]
        assert all(
            reason.startswith("lost worker heartbeat")
            for reason in report["reasons"]
        )
        assert report["simulated"] == report["cells"]

    def test_one_worker_stopped_is_caught_by_cell_timeout(self, fault_driver):
        report = _run_fault_case(fault_driver, "stop-one")
        assert report["reasons"] == ["exceeded cell_timeout=1.0s"]
        assert report["degraded_cells"] == 1
        _assert_delivered_exactly_once(report)

    def test_one_worker_stopped_escapes_the_watchdog(self, fault_driver, tmp_path):
        proc, lines = fault_driver("stop-one-watchdog-only")
        assert _next_line(lines, FAULT_DEADLINE) == "READY\n"
        # The live worker finishes the three healthy cells...
        deadline = time.monotonic() + FAULT_DEADLINE
        while True:
            try:
                replay = read_journal(next((tmp_path / "runs").glob("*.jsonl")))
            except (StopIteration, JournalError):
                replay = None  # not created yet, or before its manifest
            if replay is not None and len(replay.completed) == 3:
                break
            assert time.monotonic() < deadline, "healthy cells never finished"
            time.sleep(0.05)
        # ...and five watchdog budgets later the stopped one is still out.
        assert _next_line(lines, 5.0) is None
        assert replay.cells["stoppy/easy"].state == "started"
        assert proc.poll() is None


# -- failure scenarios through the engine --------------------------------------


class TestFailureScenarios:
    def _trace(self):
        return FailureTrace(
            [
                NodeFailure(down_time=2_000.0, up_time=12_000.0, nodes=64),
                NodeFailure(down_time=30_000.0, up_time=40_000.0, nodes=32),
            ]
        )

    def test_fingerprint_distinguishes_failure_axes(self, workload):
        digest = fingerprint_jobs(workload)
        cfg = SchedulerConfig("fcfs", "easy")
        base = cell_fingerprint(digest, cfg, total_nodes=256, weighted=False)
        faulty = cell_fingerprint(
            digest, cfg, total_nodes=256, weighted=False,
            failures_digest=self._trace().fingerprint(), recovery="resubmit",
        )
        assert faulty != base
        assert faulty != cell_fingerprint(
            digest, cfg, total_nodes=256, weighted=False,
            failures_digest=self._trace().fingerprint(), recovery="abandon",
        )
        assert faulty != cell_fingerprint(
            digest, cfg, total_nodes=256, weighted=False,
            failures_digest=FailureTrace().fingerprint(), recovery="resubmit",
        )

    def test_scenario_sweep_baseline_matches_plain_run(self, tmp_path, workload):
        configs = [SchedulerConfig("fcfs", "easy"), SchedulerConfig("fcfs", "list")]
        engine = ExperimentEngine(workers=2, cache=tmp_path)
        scenarios = {
            "healthy": None,
            "outage": failure_spec(self._trace(), "resubmit"),
        }
        grids = engine.run_scenarios(
            workload[:60],
            scenarios,
            total_nodes=256,
            configs=configs,
        )
        assert list(grids) == ["healthy", "outage"]

        plain = run_grid(workload[:60], total_nodes=256, configs=configs)
        for key in plain.cells:
            healthy = grids["healthy"].cells[key]
            assert healthy.objective == plain.cells[key].objective
            assert healthy.lost_node_seconds == 0.0
            faulty = grids["outage"].cells[key]
            assert faulty.lost_node_seconds == self._trace().lost_node_seconds()
            assert faulty.objective != healthy.objective

        # Scenario cells cache independently: a re-sweep is all hits.
        warm = ExperimentEngine(workers=1, cache=tmp_path)
        warm.run_scenarios(
            workload[:60],
            scenarios,
            total_nodes=256,
            configs=configs,
        )
        assert warm.stats.simulated == 0

    def test_parallel_failure_cells_match_serial(self, workload):
        # The trace pickles across the process boundary and the workers
        # rebuild the recovery policy from its spec: results must be
        # bit-identical to the in-process path.
        trace = mtbf_trace(
            total_nodes=256, horizon=60_000.0, mtbf=400_000.0, mttr=3_000.0,
            seed=17, max_nodes_per_failure=32,
        )
        configs = [SchedulerConfig("fcfs", "easy"), SchedulerConfig("psrs", "easy")]
        kwargs = dict(
            total_nodes=256, configs=configs,
            scenario=failure_spec(trace, "checkpoint:interval=600,overhead=30"),
        )
        parallel = ExperimentEngine(workers=2).run(workload[:60], **kwargs)
        serial = ExperimentEngine(workers=1).run(workload[:60], **kwargs)
        for key in serial.cells:
            assert parallel.cells[key].objective == serial.cells[key].objective
            assert (
                parallel.cells[key].wasted_node_seconds
                == serial.cells[key].wasted_node_seconds
            )

    def test_malformed_recovery_spec_fails_fast(self, workload):
        with pytest.raises(ValueError, match="unknown recovery policy"):
            ExperimentEngine().run(
                workload[:10],
                total_nodes=256,
                configs=[SchedulerConfig("fcfs", "easy")],
                scenario=failure_spec(self._trace(), "pray"),
            )


# -- the open registry ---------------------------------------------------------


def _sjf_order(total_nodes, weight, threshold):
    return KeyOrderPolicy(lambda j: j.estimated_runtime, "sjf")


class TestOpenRegistry:
    def test_register_and_unregister_row(self):
        register_row("sjf-test", _sjf_order, label="SJF (test)", columns=("easy",))
        try:
            assert "sjf-test" in registered_rows()
            keys = [c.key for c in registered_configurations(rows=("sjf-test",))]
            assert keys == ["sjf-test/easy"]
        finally:
            unregister_row("sjf-test")
        assert "sjf-test" not in registered_rows()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_row("fcfs", _sjf_order)
        with pytest.raises(ValueError, match="already registered"):
            register_discipline("easy", lambda: None)

    def test_registered_configurations_cover_paper_grid(self):
        paper = {c.key for c in paper_configurations()}
        everything = {c.key for c in registered_configurations()}
        assert paper <= everything

    def test_registered_columns_in_paper_order(self):
        assert registered_columns()[:3] == ("list", "conservative", "easy")

    def test_custom_row_runs_through_engine_and_tables(self, tmp_path, workload):
        register_row("sjf-test", _sjf_order, label="SJF (test)", columns=("easy",))
        try:
            configs = list(paper_configurations()) + list(
                registered_configurations(rows=("sjf-test",))
            )
            engine = ExperimentEngine(workers=4, cache=tmp_path)
            grid = engine.run(workload[:60], total_nodes=256, configs=configs)
            assert "sjf-test/easy" in grid.cells
            assert engine.stats.simulated == 14
            rendered = format_grid(grid)
            assert "SJF (test)" in rendered
            # percentages work for the custom cell too
            assert grid.pct("sjf-test/easy") == pytest.approx(
                grid.cells["sjf-test/easy"].pct_vs(grid.reference.objective)
            )
            # and the custom cell is cached like any paper cell
            warm = ExperimentEngine(workers=1, cache=tmp_path)
            warm.run(workload[:60], total_nodes=256, configs=configs)
            assert warm.stats.simulated == 0
            assert warm.stats.cache_hits == 14
        finally:
            unregister_row("sjf-test")


# -- reference fallback (GridResult API fix) -----------------------------------


class TestReferenceFallback:
    def test_missing_fcfs_easy_falls_back_to_first_cell(self, workload):
        grid = run_grid(
            workload[:30],
            total_nodes=256,
            configs=[SchedulerConfig("psrs", "easy"), SchedulerConfig("gg", "list")],
        )
        assert grid.reference.config.key == "psrs/easy"
        assert grid.pct("psrs/easy") == 0.0

    def test_explicit_reference_key(self, workload):
        grid = run_grid(
            workload[:30],
            total_nodes=256,
            configs=[SchedulerConfig("psrs", "easy"), SchedulerConfig("gg", "list")],
            reference_key="gg/list",
        )
        assert grid.reference.config.key == "gg/list"
        assert grid.pct("gg/list") == 0.0

    def test_unknown_reference_key_message(self):
        grid = GridResult("w", False, 64, 0)
        with pytest.raises(KeyError, match="no cells"):
            grid.reference
        grid.cells["gg/list"] = object()  # only key presence matters here
        grid.reference_key = "fcfs/easy"
        with pytest.raises(KeyError, match="available cells: gg/list"):
            grid.reference

    def test_unknown_cell_key_message(self, workload):
        grid = run_grid(
            workload[:20], total_nodes=256, configs=[SchedulerConfig("fcfs", "easy")]
        )
        with pytest.raises(KeyError, match="unknown grid cell 'nope/nada'"):
            grid.pct("nope/nada")
        with pytest.raises(KeyError, match="available cells"):
            grid.compute_pct("nope/nada")


# -- TimingScheduler next_wakeup accounting (Tables 7–8 bugfix) ----------------


class _SlowWakeupScheduler(Scheduler):
    """Minimal scheduler whose timer callback burns measurable time."""

    name = "slow-wakeup"
    uses_estimates = False

    def on_submit(self, job, ctx):
        pass

    def select_jobs(self, ctx):
        return []

    def next_wakeup(self, ctx):
        time.sleep(0.002)
        return None

    @property
    def pending_count(self):
        return 0


class TestTimingWakeup:
    def test_next_wakeup_time_is_accumulated(self):
        timed = TimingScheduler(_SlowWakeupScheduler())
        assert timed.elapsed == 0.0
        assert timed.next_wakeup(None) is None
        assert timed.elapsed >= 0.002


# -- one dispatch core: request -> run -> dispatch -------------------------------


def _assert_no_run_state(engine):
    """A run leaves nothing on the engine but the public ``stats``."""
    state = vars(engine)
    assert set(state) == set(vars(ExperimentEngine()))
    assert not any(isinstance(value, RunJournal) for value in state.values())
    run_id = engine.stats.run_id
    assert run_id is None or run_id not in state.values()
    assert not [name for name in state if "interrupt" in name or "run_id" in name]


class TestOneDispatchCore:
    def test_engine_interrupted_once_runs_its_next_grid(self, tmp_path, workload):
        """The interrupt flag belongs to the run, not the engine: a SIGINT
        that stopped one run must not stop the next one at its first
        cell when that run installs no handlers of its own."""
        jobs = workload[:30]
        fired = []

        def interrupt_once(event):
            if event.kind == "cell-finished" and not fired:
                fired.append(event.key)
                os.kill(os.getpid(), signal.SIGINT)

        engine = ExperimentEngine(journal_dir=tmp_path, on_event=interrupt_once)
        with pytest.raises(RunInterrupted) as caught:
            engine.run(jobs, total_nodes=256, configs=THREE_CELLS)
        assert caught.value.signal_name == "SIGINT"
        assert caught.value.completed == 1
        assert caught.value.remaining == 2
        _assert_no_run_state(engine)

        # (a) no journal root: no handlers are installed for this run.
        engine.journal_dir = None
        grid = engine.run(jobs, total_nodes=256, configs=THREE_CELLS)
        assert list(grid.cells) == [c.key for c in THREE_CELLS]
        assert engine.stats.simulated == 3
        _assert_no_run_state(engine)

        # (b) journaled, but off the main thread: no handlers either.
        engine.journal_dir = tmp_path
        outcome = {}

        def target():
            try:
                outcome["grid"] = engine.run(
                    jobs, total_nodes=256, configs=THREE_CELLS
                )
            except BaseException as exc:  # surfaced by the assert below
                outcome["error"] = exc

        thread = threading.Thread(target=target)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert "error" not in outcome, outcome.get("error")
        assert list(outcome["grid"].cells) == [c.key for c in THREE_CELLS]
        assert engine.stats.simulated == 3
        _assert_no_run_state(engine)

    def test_simulate_cell_takes_the_compiled_scenario_as_one_object(self):
        parameters = inspect.signature(simulate_cell).parameters
        assert "scenario" in parameters
        assert not {"failures", "recovery", "cancellations"} & set(parameters)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_traced_names_are_called_through_the_engine_module(
        self, tmp_path, workload, workers
    ):
        """The benchmark tracer binds ``simulate_cell``, ``fingerprint_jobs``
        and ``cell_fingerprint`` as globals of ``repro.experiments.engine``
        and patches ``ResultCache`` / ``RunJournal`` on their classes:
        wherever the code moves, those are the names it has to be called
        through."""
        tracing = pytest.importorskip("benchmarks.e2e.tracing")
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            engine = ExperimentEngine(workers=workers, cache=tmp_path)
            engine.run(workload[:30], total_nodes=256, configs=THREE_CELLS[:2])
        assert tracing.still_wrapped() == []
        assert tracer.missing == []
        assert engine.stats.simulated == 2
        recorded = {span[1] for span in tracer.spans}
        expected = {
            "engine.run",
            "engine.fingerprint_jobs",
            "engine.cell_fingerprint",
            "cache.get",
            "cache.put",
            "journal.record_cell",
        }
        if workers == 1:
            # Pool workers simulate in their own processes: their spans
            # stay there.
            expected.add("engine.cell")
        assert expected <= recorded, expected - recorded
