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
from repro.core.packing import pack_jobs, unpack_jobs
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
from repro.experiments.journal import RunInterrupted, RunJournal
from repro.experiments.paper import probabilistic_workload
from repro.experiments import pool as pool_module
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


@pytest.fixture
def budgets(monkeypatch):
    """Set the pool's retry constants for one test:
    ``budgets(MAX_RETRIES=1, RETRY_BACKOFF=0.01)``."""

    def set_budgets(**values):
        for name, value in values.items():
            monkeypatch.setattr(pool_module, name, value)

    return set_budgets


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

    def test_cells_in_config_order_each_announced_once(self, workload):
        """A parallel grid comes back in config order, whatever order its
        cells finished in, and ``on_event`` saw each finish once."""
        configs = list(paper_configurations())
        events = []
        grid = ExperimentEngine(workers=4, on_event=events.append).run(
            workload[:40], total_nodes=256, configs=configs,
        )
        assert list(grid.cells) == [c.key for c in configs]
        finished = [e.key for e in events if e.kind == "cell-finished"]
        assert sorted(finished) == sorted(grid.cells)


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


# -- the run record: journal, events and fsyncs agree --------------------------


FOUR_CELLS = [
    SchedulerConfig("fcfs", "easy"),
    SchedulerConfig("fcfs", "list"),
    SchedulerConfig("psrs", "easy"),
    SchedulerConfig("gg", "list"),
]


class TestRunRecord:
    """What one run journals, fsyncs and announces, pinned together."""

    @pytest.fixture
    def fsyncs(self, monkeypatch):
        calls = []
        real = os.fsync

        def counting(fd):
            calls.append(fd)
            return real(fd)

        monkeypatch.setattr(os, "fsync", counting)
        return calls

    @staticmethod
    def _records(path):
        return [json.loads(line) for line in path.read_text().splitlines()]

    def _run(self, tmp_path, workload, workers):
        """One journaled grid; every event checks, as it is sent, that the
        journal file already holds the record it announces."""
        journal = {}
        events = []

        def on_event(event):
            events.append(event)
            if event.kind == "grid-started":
                journal["path"] = tmp_path / "runs" / f"{event.run_id}.jsonl"
            if event.key is None:
                return
            cells = [
                r for r in self._records(journal["path"])
                if r["kind"] == "cell" and r["key"] == event.key
            ]
            if event.kind == "cell-started":
                assert [r["state"] for r in cells].count("started") == 1
            elif event.kind in ("cell-finished", "cache-hit"):
                assert [r["objective"] for r in cells if r["state"] == "completed"] \
                    == [event.objective]

        with ExperimentEngine(
            workers=workers, cache=tmp_path, on_event=on_event
        ) as engine:
            grid = engine.run(workload[:30], total_nodes=256, configs=FOUR_CELLS)
        return grid, events, self._records(journal["path"])

    def test_serial_run_record(self, tmp_path, workload, fsyncs):
        grid, events, records = self._run(tmp_path, workload, workers=1)
        # The manifest, the lookup batch, then one fsync per cell boundary:
        # each ``completed`` shares its fsync with the next ``started``.
        assert len(fsyncs) == 2 + len(FOUR_CELLS) + 1
        assert [(r["kind"], r.get("state"), r.get("key")) for r in records] == [
            ("manifest", None, None),
            ("cell", "scheduled", "fcfs/easy"),
            ("cell", "scheduled", "fcfs/list"),
            ("cell", "scheduled", "psrs/easy"),
            ("cell", "scheduled", "gg/list"),
            ("cell", "started", "fcfs/easy"),
            ("cell", "completed", "fcfs/easy"),
            ("cell", "started", "fcfs/list"),
            ("cell", "completed", "fcfs/list"),
            ("cell", "started", "psrs/easy"),
            ("cell", "completed", "psrs/easy"),
            ("cell", "started", "gg/list"),
            ("cell", "completed", "gg/list"),
        ]
        assert [(e.kind, e.key) for e in events] == [
            ("grid-started", None),
            ("cell-started", "fcfs/easy"),
            ("cell-finished", "fcfs/easy"),
            ("cell-started", "fcfs/list"),
            ("cell-finished", "fcfs/list"),
            ("cell-started", "psrs/easy"),
            ("cell-finished", "psrs/easy"),
            ("cell-started", "gg/list"),
            ("cell-finished", "gg/list"),
            ("grid-finished", None),
        ]
        assert [e.objective for e in events if e.kind == "cell-finished"] == [
            cell.objective for cell in grid.cells.values()
        ]

        # A warm rerun continues the journal: a ``resumed`` marker, nothing
        # journaled again, every cell a hit announced after the lookup batch.
        del fsyncs[:]
        _, events, records = self._run(tmp_path, workload, workers=1)
        assert len(fsyncs) == 1
        assert records[-1]["kind"] == "resumed"
        assert [e.kind for e in events] == (
            ["grid-started"] + ["cache-hit"] * len(FOUR_CELLS) + ["grid-finished"]
        )

    def test_pool_run_record(self, tmp_path, workload, fsyncs):
        grid, events, records = self._run(tmp_path, workload, workers=2)
        # The manifest, the lookup batch and the first dispatch, then one
        # fsync per wake that collected results: one result each at most,
        # two (one per worker) at least.
        cells = len(FOUR_CELLS)
        assert 3 + cells // 2 <= len(fsyncs) <= 3 + cells
        started = [e.key for e in events if e.kind == "cell-started"]
        assert sorted(started) == sorted(grid.cells)
        for key in grid.cells:
            states = [r["state"] for r in records if r.get("key") == key]
            assert states == ["scheduled", "started", "completed"]
            index = next(i for i, e in enumerate(events) if e.key == key)
            assert events[index].kind == "cell-started"


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
    """FCFS that logs who built it: pid, and in a pool worker or not."""
    with open(_PROBE_LOG, "a") as handle:
        handle.write(f"{os.getpid()} {int(_in_pool_worker())}\n")
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
    return [worker.process for worker in pool.workers]


def _assert_all_dead(processes):
    for proc in processes:
        proc.join(timeout=10)
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
        self, workload, probe_row, tmp_path, monkeypatch
    ):
        """Each worker is sent a grid's payload once, with its first cell
        of the grid, and unpacks it once."""
        unpacked = tmp_path / "unpacked.log"

        def logging_unpack(packed):
            with open(unpacked, "a") as handle:
                handle.write(f"{os.getpid()} {len(packed)}\n")
            return unpack_jobs(packed)

        # Patched before the pool forks, so its workers inherit the spy.
        monkeypatch.setattr(pool_module, "unpack_jobs", logging_unpack)
        configs = [*probe_row, *THREE_CELLS]
        with ExperimentEngine(workers=2) as engine:
            engine.run(workload[:30], total_nodes=256, configs=configs)
            pool = _kept_pool(engine)
            pids = {worker.pid for worker in pool.workers}
            assert len(pids) == 2
            first = _probe_lines()
            engine.run(workload[30:70], total_nodes=256, configs=configs)
            second = _probe_lines()
            assert engine.stats.backend == "local-pool"
            assert engine.stats.degraded_cells == engine.stats.retries == 0
            # The same pool object, the same worker processes.
            assert _kept_pool(engine) is pool
            assert {worker.pid for worker in pool.workers} == pids
        for lines in (first, second):
            assert len(lines) == len(probe_row)
            assert all(pid in pids and in_worker for pid, in_worker in lines)
        # Both workers served both grids (the first dispatch gives each a
        # running cell), and each unpacked each grid's stream exactly once.
        lines = unpacked.read_text().splitlines()
        assert sorted(tuple(map(int, line.split())) for line in lines) == sorted(
            (pid, n_jobs) for pid in pids for n_jobs in (30, 40)
        )

    @pytest.mark.parametrize("wreck", ["other-workload", "garbage"])
    def test_payload_that_is_not_its_digest_is_refused(
        self, workload, wreck, budgets, monkeypatch
    ):
        configs = [SchedulerConfig("fcfs", "easy"), SchedulerConfig("fcfs", "list")]
        events = []
        budgets(MAX_RETRIES=1, RETRY_BACKOFF=0.01)
        victim = workload[20:50]
        with ExperimentEngine(workers=2, on_event=events.append) as engine:
            # The store hands the pool the wrong bytes for the grid's digest.
            wrong = b"not a packed stream" if wreck == "garbage" else pack_jobs(
                workload[:20]
            )
            monkeypatch.setattr(
                engine.workload_store, "register", lambda digest, jobs: wrong
            )
            grid = engine.run(victim, total_nodes=256, configs=configs)
            stats = engine.stats
        # Every worker attempt failed; the serial fallback, which holds the
        # live jobs, completed the grid with the right numbers.
        assert stats.retries == len(configs) and stats.degraded_cells == len(configs)
        assert stats.worker_replacements == 0  # refusing is not dying
        serial = ExperimentEngine(workers=1).run(
            victim, total_nodes=256, configs=configs
        )
        for key in serial.cells:
            assert grid.cells[key].objective == serial.cells[key].objective
        retries = [e for e in events if e.kind == "cell-retry"]
        assert len(retries) == len(configs)
        assert all("cell raised" in e.detail for e in retries)
        assert all("does not hold that workload" in e.detail for e in retries)

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
                assert engine.stats.worker_replacements == 0
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
        processes = _worker_processes(pool)
        assert len(processes) == 2
        engine.close()
        engine.close()
        assert engine._pool is None and pool.workers == []
        _assert_all_dead(processes)
        # Closed is not dead: the next parallel run starts a new pool.
        grid = engine.run(workload[:25], total_nodes=256, configs=THREE_CELLS)
        assert engine.stats.backend == "local-pool"
        assert engine.stats.degraded_cells == 0 and len(grid.cells) == 3
        processes = _worker_processes(_kept_pool(engine))
        del engine, pool  # a dropped pool kills its workers
        _assert_all_dead(processes)

    @pytest.mark.skipif(not hasattr(os, "waitid"), reason="needs os.waitid")
    def test_stopped_reports_a_worker_while_it_is_stopped(self, workload):
        with ExperimentEngine(workers=2) as engine:
            engine.run(workload[:20], total_nodes=256, configs=THREE_CELLS)
            pool = _kept_pool(engine)
            assert pool.stopped() == []
            victim = pool.workers[0]
            os.kill(victim.pid, signal.SIGSTOP)
            try:
                deadline = time.monotonic() + 10
                while not pool.stopped() and time.monotonic() < deadline:
                    time.sleep(0.01)
                # A peek, not a reap: asking again gives the same answer.
                assert pool.stopped() == pool.stopped() == [victim]
            finally:
                os.kill(victim.pid, signal.SIGCONT)
            deadline = time.monotonic() + 10
            while pool.stopped() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool.stopped() == []
            assert victim.process.is_alive()

    @pytest.mark.parametrize("max_replacements", [5, 0])
    def test_crashed_worker_is_rebuilt_and_the_next_run_is_healthy(
        self, workload, max_replacements, budgets
    ):
        budgets(
            MAX_RETRIES=1, RETRY_BACKOFF=0.01,
            MAX_WORKER_REPLACEMENTS=max_replacements,
        )
        register_row("crashy", _crashy_order, columns=("easy",))
        try:
            with ExperimentEngine(workers=2) as engine:
                grid = engine.run(
                    workload[:30],
                    total_nodes=256,
                    configs=[SchedulerConfig("crashy", "easy"), *THREE_CELLS],
                )
                assert grid.cells["crashy/easy"].objective > 0
                if max_replacements:
                    # One replacement per crash, and only the crashing
                    # cell ran in process; the pool finished the rest and
                    # is kept.
                    assert engine.stats.worker_replacements == 2
                    assert engine.stats.degraded_cells == 1
                    assert len(_kept_pool(engine).workers) == 2
                else:
                    # Out of replacements: the pool gave up and is gone.
                    assert engine.stats.worker_replacements == 1
                    assert engine.stats.degraded_cells >= 1
                    assert engine._pool is None
                engine.run(workload[30:60], total_nodes=256, configs=THREE_CELLS)
                assert engine.stats.backend == "local-pool"
                assert engine.stats.simulated == 3
                assert engine.stats.retries == engine.stats.worker_replacements == 0
                assert engine.stats.degraded_cells == 0
                assert all(p.is_alive() for p in _worker_processes(_kept_pool(engine)))
        finally:
            unregister_row("crashy")

    def test_hung_worker_is_rebuilt_and_the_next_run_is_healthy(
        self, workload, budgets
    ):
        budgets(MAX_RETRIES=0, MAX_WORKER_REPLACEMENTS=5)
        register_row("sleepy", _sleepy_order, columns=("easy",))
        try:
            with ExperimentEngine(workers=2, cell_timeout=1.0) as engine:
                engine.run(
                    workload[:20],
                    total_nodes=256,
                    configs=[SchedulerConfig("sleepy", "easy"), *THREE_CELLS],
                )
                assert engine.stats.worker_replacements == 1
                assert engine.stats.degraded_cells == 1
                engine.run(workload[20:45], total_nodes=256, configs=THREE_CELLS)
                assert engine.stats.retries == engine.stats.worker_replacements == 0
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
        assert borrowed[0].workers == []  # closed: its workers killed
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
        self, tmp_path, workload, budgets
    ):
        budgets(MAX_RETRIES=1, RETRY_BACKOFF=0.01, MAX_WORKER_REPLACEMENTS=5)
        register_row("crashy", _crashy_order, columns=("easy",))
        try:
            events = []
            engine = ExperimentEngine(
                workers=2, cache=tmp_path, on_event=events.append
            )
            configs = [
                SchedulerConfig("crashy", "easy"),
                SchedulerConfig("fcfs", "easy"),
            ]
            grid = engine.run(workload[:30], total_nodes=256, configs=configs)

            # The grid completed despite the crashing cell...
            assert set(grid.cells) == {"crashy/easy", "fcfs/easy"}
            assert grid.cells["crashy/easy"].objective > 0
            # ...after one charged retry and a serial fallback.
            assert engine.stats.retries == 1
            assert engine.stats.worker_replacements == 2
            assert engine.stats.degraded_cells == 1
            kinds = [e.kind for e in events]
            assert "cell-retry" in kinds
            assert "engine-degraded" in kinds
            # Only the crashing cell was charged: the pool knows which
            # cell the dead worker held.
            retries = [e for e in events if e.kind == "cell-retry"]
            assert [e.key for e in retries] == ["crashy/easy"]
            assert all("exited with status 1" in e.detail for e in retries)
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

    def test_hung_worker_times_out_and_grid_completes(self, workload, budgets):
        budgets(MAX_RETRIES=0, MAX_WORKER_REPLACEMENTS=5)
        register_row("sleepy", _sleepy_order, columns=("easy",))
        try:
            events = []
            engine = ExperimentEngine(
                workers=2, on_event=events.append, cell_timeout=1.0
            )
            configs = [
                SchedulerConfig("sleepy", "easy"),
                SchedulerConfig("fcfs", "easy"),
            ]
            grid = engine.run(workload[:20], total_nodes=256, configs=configs)
            assert set(grid.cells) == {"sleepy/easy", "fcfs/easy"}
            assert engine.stats.worker_replacements == 1
            assert engine.stats.degraded_cells == 1
            degraded = next(e for e in events if e.kind == "engine-degraded")
            assert "serial" in degraded.detail
        finally:
            unregister_row("sleepy")

    def test_retry_knob_validation(self):
        with pytest.raises(ValueError, match="cell_timeout"):
            ExperimentEngine(cell_timeout=0.0)

    def test_the_retry_budgets_are_pool_constants(self):
        assert list(inspect.signature(ExperimentEngine).parameters) == [
            "workers", "cache", "on_event", "cell_timeout", "journal_dir",
            "handle_signals", "backend",
        ]
        assert (
            pool_module.MAX_RETRIES,
            pool_module.RETRY_BACKOFF,
            pool_module.MAX_WORKER_REPLACEMENTS,
        ) == (2, 0.5, 2)


# -- the retry pause -------------------------------------------------------------


class _RunStub:
    """The slice of a ``GridRun`` that ``PoolRun.charge_retry`` writes to."""

    def __init__(self) -> None:
        self.notes: list = []

    def note(self, kind, key=None, **fields) -> None:
        self.notes.append((kind, fields))


class TestRetryBackoff:
    def test_backoff_matches_legacy_formula(self):
        """retry_pause must reproduce base * 2**(n-1) * uniform(0.5, 1.5)
        draw for draw."""
        for failures in range(1, 6):
            new = retry_pause(0.5, failures, random.Random(42))
            legacy = 0.5 * (2 ** (failures - 1)) * random.Random(42).uniform(0.5, 1.5)
            assert new == legacy

    def test_engine_policy_matches_legacy_backoff(self, budgets):
        """The pool loop's pauses are the legacy sequence, one draw per
        retry from its rng, until the budget sends the cell to the serial
        fallback."""
        budgets(MAX_RETRIES=3, RETRY_BACKOFF=0.25)
        run = _RunStub()
        pool_run = PoolRun(
            ExperimentEngine(), run, [(SchedulerConfig("fcfs", "easy"), "fp")]
        )
        pool_run.rng = random.Random(9)
        for _ in range(4):
            pool_run.charge_retry("fp", "boom")
        legacy_rng = random.Random(9)
        legacy = [
            0.25 * (2 ** (attempt - 1)) * legacy_rng.uniform(0.5, 1.5)
            for attempt in range(1, 4)
        ]
        pauses = [fields["wall_time"] for kind, fields in run.notes if kind == "retry"]
        assert pauses == legacy
        assert [kind for kind, _ in run.notes] == ["retry"] * 3 + ["abandoned"]
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


def _assert_reasons_name_the_faulted_workers(report, how):
    """Each charged reason names one faulted worker: ``worker <pid> <how>``."""
    assert report["reasons"]
    for reason in report["reasons"]:
        pid = reason.removeprefix("worker ").removesuffix(f" {how}")
        assert pid.isdigit(), reason
        assert int(pid) in report["faulted"], (reason, report["faulted"])


class TestFaultMatrix:
    """Which detector catches which worker fault.

    Each case runs a journaled two-worker grid in a subprocess (see
    ``tests/_fault_driver.py``).  The retry reasons name the detector and
    the worker: a SIGKILLed worker's process sentinel fires, a stopped
    worker — every one or one beside a live one — is seen stopped by
    the pool, which asks the kernel (``WorkerPool.stopped``), and only a
    worker that runs but never finishes needs ``cell_timeout``.  The pool
    knows which cell each worker holds, so only those cells are charged.
    Every finished case must also exit promptly: a SIGSTOPped worker
    ignores SIGTERM, and a surviving worker makes the interpreter hang at
    exit.
    """

    def test_sigkill_is_caught_by_the_process_sentinel(self, fault_driver):
        report = _run_fault_case(fault_driver, "sigkill")
        # One charge per kill, both for the crashing cell: a retry, then
        # the serial fallback (MAX_RETRIES=1 in the driver).
        assert report["charged"] == ["crashy/easy"] * 2
        assert len(report["faulted"]) == 2
        _assert_reasons_name_the_faulted_workers(report, "killed by SIGKILL")
        assert report["worker_replacements"] == 2
        assert report["degraded_cells"] == 1
        _assert_delivered_exactly_once(report)

    def test_all_workers_stopped_is_caught_by_the_watchdog(self, fault_driver):
        report = _run_fault_case(fault_driver, "stop-all")
        assert len(report["faulted"]) == 2
        _assert_reasons_name_the_faulted_workers(report, "stopped")
        # Only the running cells are charged, one per worker; the cells
        # waiting in their pipes are requeued for free.
        assert report["degraded_cells"] <= 2
        _assert_delivered_exactly_once(report)

    def test_one_worker_stopped_is_recovered_without_cell_timeout(
        self, fault_driver
    ):
        report = _run_fault_case(fault_driver, "stop-one")
        assert len(report["faulted"]) == 1
        _assert_reasons_name_the_faulted_workers(report, "stopped")
        assert report["degraded_cells"] == 1
        _assert_delivered_exactly_once(report)

    def test_hung_worker_is_caught_by_cell_timeout(self, fault_driver):
        report = _run_fault_case(fault_driver, "hung")
        assert report["reasons"] == ["exceeded cell_timeout=1.0s"]
        assert report["degraded_cells"] == 1
        _assert_delivered_exactly_once(report)


def _alive(pid):
    """Whether ``pid`` runs: a zombie (dead, not yet reaped by whoever
    inherited it) does not."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no procfs
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


class TestOrphanedWorkers:
    def test_sigkilled_driver_leaves_no_worker_behind(self, fault_driver, tmp_path):
        """Killing the engine's process mid-grid must not orphan its
        workers: each one sees its parent's end of the pipe close and
        exits, once the three-second cell it runs is done."""
        proc, lines = fault_driver("orphan")
        assert _next_line(lines, FAULT_DEADLINE) == "READY\n"
        marks = tmp_path / "runs"
        deadline = time.monotonic() + FAULT_DEADLINE
        while len(list(marks.glob("*.fault"))) < 2:
            assert time.monotonic() < deadline, "the workers never took a cell"
            time.sleep(0.02)
        workers = [int(mark.stem) for mark in marks.glob("*.fault")]
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        deadline = time.monotonic() + 3.0 + 5.0
        while any(_alive(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if _alive(pid)]


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
