"""Crash/resume integration: SIGKILL, graceful SIGINT, manifest drift.

The subprocess tests drive ``tests._grid_driver`` — a deliberately slow
journaled grid — kill it mid-run, then resume the same journal in this
process and check the stitched result is bit-identical to an
uninterrupted run.
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
    UnknownRunError,
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

        # Resume in this process: completed cells come from the cache,
        # only the remainder is re-simulated.
        engine = ExperimentEngine(
            workers=1, cache=cache_dir, handle_signals=False
        )
        resumed = engine.resume(
            run_id, make_jobs(), configs=slow_rows, **GRID_KWARGS
        )
        assert engine.stats.run_id == run_id
        assert engine.stats.cache_hits + engine.stats.simulated == total
        assert engine.stats.cache_hits >= done_at_kill
        assert engine.stats.simulated < total

        # The stitched grid equals an uninterrupted run, bit for bit.
        fresh_engine = ExperimentEngine(
            workers=1, cache=tmp_path / "fresh-cache", handle_signals=False
        )
        fresh = fresh_engine.run(make_jobs(), configs=slow_rows, **GRID_KWARGS)
        _assert_grids_identical(resumed, fresh)

        # The journal closes out clean: complete, zero inconsistencies.
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
        """A spec-driven sweep survives SIGKILL: the resuming process
        rebuilds an equal spec, computes the identical run id (the
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
        resumed = engine.resume(
            run_id,
            make_jobs(),
            configs=slow_rows,
            scenario=make_scenario(),
            **GRID_KWARGS,
        )
        assert engine.stats.run_id == run_id
        assert engine.stats.cache_hits >= done_at_kill
        assert engine.stats.simulated < total

        fresh_engine = ExperimentEngine(
            workers=1, cache=tmp_path / "fresh-cache", handle_signals=False
        )
        fresh = fresh_engine.run(
            make_jobs(), configs=slow_rows, scenario=make_scenario(), **GRID_KWARGS
        )
        _assert_grids_identical(resumed, fresh)
        assert read_journal(journal).complete
        audit = verify_run(
            run_id,
            journal_dir=cache_dir / "runs",
            cache=ResultCache(cache_dir),
            grid=resumed,
        )
        assert audit.ok and audit.inconsistencies == 0

    def test_resume_with_wrong_run_id_is_unknown(self, tmp_path, slow_rows):
        engine = ExperimentEngine(
            workers=1, cache=tmp_path / "cache", handle_signals=False
        )
        with pytest.raises(UnknownRunError):
            engine.resume(
                "0" * 12, make_jobs(), configs=slow_rows[:1], **GRID_KWARGS
            )


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
        # resume handle printed, the remainder journaled as interrupted.
        assert proc.returncode == 130, f"stdout:\n{out}\nstderr:\n{err}"
        assert f"INTERRUPTED {run_id}" in out
        replay = read_journal(journal)
        assert not replay.complete
        assert replay.interrupted  # remainder marked, not dangling
        assert not replay.torn_tail  # clean shutdown, no torn write

        engine = ExperimentEngine(
            workers=1, cache=cache_dir, handle_signals=False
        )
        resumed = engine.resume(
            run_id, make_jobs(), configs=slow_rows, **GRID_KWARGS
        )
        assert engine.stats.cache_hits + engine.stats.simulated == total
        assert engine.stats.cache_hits >= 2
        assert read_journal(journal).complete
        audit = verify_run(
            run_id,
            journal_dir=cache_dir / "runs",
            cache=ResultCache(cache_dir),
            grid=resumed,
        )
        assert audit.ok


class TestInProcessResume:
    """Cheap resume-semantics tests that need no subprocess."""

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
        jobs, configs, engine = fast_setup
        first = engine.run(jobs, total_nodes=256, configs=configs)
        run_id = engine.stats.run_id
        assert run_id is not None
        resumed = engine.resume(run_id, jobs, total_nodes=256, configs=configs)
        assert engine.stats.simulated == 0
        assert engine.stats.cache_hits == len(configs)
        _assert_grids_identical(resumed, first)

    def test_run_id_for_predicts_the_journaled_id(self, fast_setup):
        jobs, configs, engine = fast_setup
        predicted = engine.run_id_for(jobs, total_nodes=256, configs=configs)
        engine.run(jobs, total_nodes=256, configs=configs)
        assert engine.stats.run_id == predicted

    def test_manifest_drift_refuses_resume(self, fast_setup):
        jobs, configs, engine = fast_setup
        engine.run(jobs, total_nodes=256, configs=configs)
        run_id = engine.stats.run_id
        with pytest.raises(ManifestMismatchError) as excinfo:
            engine.resume(run_id, jobs, total_nodes=512, configs=configs)
        assert set(excinfo.value.diffs) == {"total_nodes"}

    def test_resume_without_journal_root_rejected(self):
        from repro.experiments.paper import probabilistic_workload

        engine = ExperimentEngine(workers=1, handle_signals=False)
        with pytest.raises(ValueError, match="journal"):
            engine.run(
                probabilistic_workload(20, seed=1), resume_run_id="0" * 12
            )

    def test_run_experiment_refuses_unmatched_resume_id(self, tmp_path):
        from repro.experiments.paper import run_experiment

        engine = ExperimentEngine(cache=tmp_path)
        result = run_experiment("table4", scale=60, engine=engine)
        run_id = result.run_ids["unweighted"]
        # Same inputs: the matching regime resumes, everything is cached.
        resumed = run_experiment(
            "table4", scale=60, engine=engine, resume_run_id=run_id
        )
        assert resumed.run_ids["unweighted"] == run_id
        # Drifted inputs: refuse loudly instead of silently running fresh.
        with pytest.raises(UnknownRunError, match="matches no regime"):
            run_experiment(
                "table4", scale=70, engine=engine, resume_run_id=run_id
            )
