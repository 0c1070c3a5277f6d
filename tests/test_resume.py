"""Crash and rerun integration: SIGKILL, graceful SIGINT, id collisions.

A rerun of the same call is the resume: the run id hashes the grid's
inputs, so the rerun continues the interrupted run's journal and the
cache serves every cell that finished.  The subprocess tests drive
``tests._grid_driver`` — a deliberately slow journaled grid — kill it
mid-run, then make the same call in this process and check the stitched
result is bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.engine import ExperimentEngine, ResultCache
from repro.experiments.journal import (
    ManifestMismatchError,
    RunInterrupted,
    RunJournal,
    journal_path,
    list_runs,
    read_journal,
    verify_run,
)
from repro.schedulers import unregister_row

from tests._grid_driver import (
    GRID_KWARGS,
    N_SLOW_ROWS,
    build_configs,
    make_jobs,
    make_scenario,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Upper bound on any single wait in these tests; generous for slow CI.
DEADLINE = 90.0


def _spawn_driver(cache_dir: Path, mode: str) -> tuple[subprocess.Popen, str]:
    """Start the slow-grid driver and read the run id it prints first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "tests._grid_driver", str(cache_dir), mode],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline().strip()
    if not line.startswith("RUN_ID "):
        proc.kill()
        out, err = proc.communicate()
        raise AssertionError(f"driver did not print a run id: {line!r}\n{err}")
    return proc, line.split()[1]


def _wait_for_completions(
    journal: Path, minimum: int, proc: subprocess.Popen
) -> int:
    """Poll the journal until ``minimum`` cells are completed."""
    deadline = time.monotonic() + DEADLINE
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            out, err = proc.communicate()
            raise AssertionError(
                f"driver exited early ({proc.returncode}) before "
                f"{minimum} completions\n{out}\n{err}"
            )
        try:
            done = len(read_journal(journal).completed)
        except Exception:
            done = 0  # journal not created yet, or mid-first-write
        if done >= minimum:
            return done
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {minimum} journaled completions")


@pytest.fixture
def slow_rows():
    configs = build_configs()
    yield configs
    for config in configs:
        if config.row != "fcfs":
            unregister_row(config.row)


def _cached_cells(engine: ExperimentEngine, jobs, **kwargs) -> int:
    """How many of the grid's cells have an entry in ``engine``'s cache."""
    request = engine._prepare(jobs, **kwargs)
    return sum(
        engine.cache.status(request.fingerprint(config)) == "hit"
        for config in request.configs
    )


def _assert_grids_identical(resumed, fresh) -> None:
    """Bit-identical per-cell metrics and fingerprints (not wall times)."""
    assert set(resumed.cells) == set(fresh.cells)
    for key in fresh.cells:
        got, want = resumed.cells[key], fresh.cells[key]
        assert got.objective == want.objective, key
        assert got.makespan == want.makespan, key
        assert got.max_queue_length == want.max_queue_length, key
    assert resumed.fingerprints == fresh.fingerprints


class TestSigkillResume:
    def test_sigkill_midrun_resume_is_bit_identical(self, tmp_path, slow_rows):
        total = N_SLOW_ROWS + 1
        cache_dir = tmp_path / "cache"
        proc, run_id = _spawn_driver(cache_dir, "run")
        journal = journal_path(cache_dir / "runs", run_id)
        try:
            done_at_kill = _wait_for_completions(journal, total // 2, proc)
        finally:
            proc.kill()
            proc.wait(timeout=30)

        replay = read_journal(journal)
        assert len(replay.completed) >= done_at_kill
        assert not replay.complete  # the kill genuinely interrupted the run
        assert replay.resumes == 0

        # Rerun the same call in this process: the cells the cache holds
        # are hits, only the others are simulated.
        engine = ExperimentEngine(
            workers=1, cache=cache_dir, handle_signals=False
        )
        kwargs = dict(GRID_KWARGS, configs=slow_rows)
        cached = _cached_cells(engine, make_jobs(), **kwargs)
        assert cached >= done_at_kill
        resumed = engine.run(make_jobs(), **kwargs)
        assert engine.stats.run_id == run_id
        assert engine.stats.cache_hits == cached
        assert engine.stats.simulated == total - cached

        # The stitched grid equals an uninterrupted run, bit for bit.
        fresh_engine = ExperimentEngine(
            workers=1, cache=tmp_path / "fresh-cache", handle_signals=False
        )
        fresh = fresh_engine.run(make_jobs(), **kwargs)
        _assert_grids_identical(resumed, fresh)

        # The journal closes out clean: complete, one marker for the one
        # rerun, zero inconsistencies.
        replay = read_journal(journal)
        assert replay.complete
        assert replay.resumes == 1
        audit = verify_run(
            run_id,
            journal_dir=cache_dir / "runs",
            cache=ResultCache(cache_dir),
            grid=resumed,
        )
        assert audit.ok and audit.inconsistencies == 0
        (summary,) = list_runs(cache_dir / "runs")
        assert summary.run_id == run_id
        assert summary.status == "complete"
        assert summary.completed == total

    def test_sigkill_midrun_resume_of_scenario_sweep(self, tmp_path, slow_rows):
        """A spec-driven sweep survives SIGKILL: the rerun in another
        process rebuilds an equal spec, computes the identical run id (the
        canonical scenario digest is an identity field) and stitches a
        grid bit-identical to an uninterrupted scenario run."""
        total = N_SLOW_ROWS + 1
        cache_dir = tmp_path / "cache"
        proc, run_id = _spawn_driver(cache_dir, "scenario")
        journal = journal_path(cache_dir / "runs", run_id)
        try:
            done_at_kill = _wait_for_completions(journal, total // 2, proc)
        finally:
            proc.kill()
            proc.wait(timeout=30)

        replay = read_journal(journal)
        assert not replay.complete
        assert replay.manifest["scenario"] == make_scenario().digest()

        engine = ExperimentEngine(
            workers=1, cache=cache_dir, handle_signals=False
        )
        kwargs = dict(GRID_KWARGS, configs=slow_rows, scenario=make_scenario())
        cached = _cached_cells(engine, make_jobs(), **kwargs)
        assert cached >= done_at_kill
        resumed = engine.run(make_jobs(), **kwargs)
        assert engine.stats.run_id == run_id
        assert engine.stats.cache_hits == cached
        assert engine.stats.simulated == total - cached

        fresh_engine = ExperimentEngine(
            workers=1, cache=tmp_path / "fresh-cache", handle_signals=False
        )
        fresh = fresh_engine.run(make_jobs(), **kwargs)
        _assert_grids_identical(resumed, fresh)
        replay = read_journal(journal)
        assert replay.complete and replay.resumes == 1
        audit = verify_run(
            run_id,
            journal_dir=cache_dir / "runs",
            cache=ResultCache(cache_dir),
            grid=resumed,
        )
        assert audit.ok and audit.inconsistencies == 0


class TestGracefulShutdown:
    def test_sigint_exits_resumable_then_resume_completes(
        self, tmp_path, slow_rows
    ):
        total = N_SLOW_ROWS + 1
        cache_dir = tmp_path / "cache"
        proc, run_id = _spawn_driver(cache_dir, "sigint")
        journal = journal_path(cache_dir / "runs", run_id)
        try:
            _wait_for_completions(journal, 2, proc)
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=DEADLINE)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        # The driver exited through the graceful path: status 130, the
        # run id printed, the remainder journaled as interrupted.
        assert proc.returncode == 130, f"stdout:\n{out}\nstderr:\n{err}"
        assert f"INTERRUPTED {run_id}" in out
        replay = read_journal(journal)
        assert not replay.complete
        assert replay.interrupted  # remainder marked, not dangling
        assert not replay.torn_tail  # clean shutdown, no torn write

        engine = ExperimentEngine(
            workers=1, cache=cache_dir, handle_signals=False
        )
        kwargs = dict(GRID_KWARGS, configs=slow_rows)
        cached = _cached_cells(engine, make_jobs(), **kwargs)
        assert cached >= 2
        resumed = engine.run(make_jobs(), **kwargs)
        assert engine.stats.cache_hits == cached
        assert engine.stats.simulated == total - cached
        fresh = ExperimentEngine(workers=1, handle_signals=False).run(
            make_jobs(), **kwargs
        )
        _assert_grids_identical(resumed, fresh)
        replay = read_journal(journal)
        assert replay.complete and replay.resumes == 1
        audit = verify_run(
            run_id,
            journal_dir=cache_dir / "runs",
            cache=ResultCache(cache_dir),
            grid=resumed,
        )
        assert audit.ok


class TestInProcessResume:
    """Cheap rerun-semantics tests that need no subprocess."""

    @pytest.fixture
    def fast_setup(self, tmp_path):
        from repro.experiments.paper import probabilistic_workload
        from repro.experiments.runner import SchedulerConfig

        jobs = probabilistic_workload(60, seed=5)
        configs = [
            SchedulerConfig("fcfs", "easy"),
            SchedulerConfig("fcfs", "list"),
        ]
        engine = ExperimentEngine(
            workers=1, cache=tmp_path / "cache", handle_signals=False
        )
        return jobs, configs, engine

    def test_resume_of_complete_run_is_all_cache_hits(self, fast_setup):
        """A rerun of a finished run simulates nothing and journals only
        its ``resumed`` marker: the cells keep their first records."""
        jobs, configs, engine = fast_setup
        first = engine.run(jobs, total_nodes=256, configs=configs)
        run_id = engine.stats.run_id
        assert run_id is not None
        journal = journal_path(engine.cache.root / "runs", run_id)
        records = read_journal(journal).records
        for rerun in (1, 2):
            again = engine.run(jobs, total_nodes=256, configs=configs)
            assert engine.stats.run_id == run_id
            assert engine.stats.simulated == 0
            assert engine.stats.cache_hits == len(configs)
            _assert_grids_identical(again, first)
            replay = read_journal(journal)
            assert replay.resumes == rerun
            assert replay.records == records + rerun
        (summary,) = list_runs(engine.cache.root / "runs")
        assert summary.status == "complete"
        assert "2/2 cells" in summary.describe()
        assert summary.describe().endswith("2 rerun(s)")

    def test_run_id_for_predicts_the_journaled_id(self, fast_setup):
        jobs, configs, engine = fast_setup
        predicted = engine.run_id_for(jobs, total_nodes=256, configs=configs)
        engine.run(jobs, total_nodes=256, configs=configs)
        assert engine.stats.run_id == predicted

    def test_manifest_drift_refuses_resume(self, fast_setup):
        """A journal under the run's id that belongs to another grid (a
        simulated run-id prefix collision) is refused, byte for byte
        untouched, before any cell runs."""
        jobs, configs, engine = fast_setup
        run_id = engine.run_id_for(jobs, total_nodes=256, configs=configs)
        journal = journal_path(engine.cache.root / "runs", run_id)
        manifest = engine._prepare(jobs, total_nodes=256, configs=configs).manifest
        with RunJournal.create(journal, {**manifest, "weighted": True}) as other:
            other.record_cell("fcfs/easy", "completed", objective=1.0)
        before = journal.read_bytes()
        with pytest.raises(ManifestMismatchError) as excinfo:
            engine.run(jobs, total_nodes=256, configs=configs)
        assert set(excinfo.value.diffs) == {"weighted"}
        assert journal.read_bytes() == before
        assert _cached_cells(engine, jobs, total_nodes=256, configs=configs) == 0


class TestCliRerun:
    def test_resume_flag_is_gone(self, capsys):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["table3", "--resume", "0" * 12])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --resume" in capsys.readouterr().err

    def test_interrupt_prints_the_command_to_rerun(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.experiments import cli

        def interrupted(experiment_id, **kwargs):
            raise RunInterrupted(
                "ab" * 6, signal_name="SIGTERM", completed=3, remaining=10
            )

        monkeypatch.setattr(cli, "run_experiment", interrupted)
        cache = tmp_path / "a cache"
        argv = ["table3", "--scale", "40", "--cache-dir", str(cache)]
        assert cli.main(argv) == 130
        err = capsys.readouterr().err
        assert "interrupted by SIGTERM" in err
        assert "rerun the same call to continue run abababababab" in err
        assert (
            f"rerun with: repro-experiments table3 --scale 40 --cache-dir "
            f"'{cache}'" in err
        )
