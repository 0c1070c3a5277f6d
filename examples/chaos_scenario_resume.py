"""Chaos check: every journaled scenario sweep survives a rerun, bit for bit.

Run::

    PYTHONPATH=src python examples/chaos_scenario_resume.py

Sweeps a healthy baseline plus two failure scenarios through the
journaled experiment engine, then makes the same sweep again on a fresh
engine — a rerun is how an interrupted sweep resumes — and audits each
journal against the cache.  The rerun must re-simulate nothing (every
cell is a cache hit), return grids bit-identical to the first sweep's,
continue each run's journal with exactly one ``resumed`` marker, and
``verify_run`` must find zero inconsistencies — the CI chaos gate runs
this script and fails on any drift.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.experiments.engine import ExperimentEngine, ResultCache
from repro.experiments.journal import journal_path, list_runs, read_journal, verify_run
from repro.experiments.paper import probabilistic_workload
from repro.experiments.runner import SchedulerConfig
from repro.scenarios import FailureModel, ScenarioSpec

TOTAL_NODES = 256


def scenarios() -> dict[str, ScenarioSpec | None]:
    outage = FailureModel(
        # Explicit (down_time, up_time, nodes) outages.
        trace=((2_000.0, 12_000.0, 64), (30_000.0, 40_000.0, 32)),
        recovery="resubmit",
    )
    drizzle = FailureModel(
        mtbf=400_000.0, mttr=3_000.0, horizon=60_000.0, seed=17,
        max_nodes_per_failure=32, total_nodes=TOTAL_NODES,
        recovery="checkpoint:interval=600,overhead=30",
    )
    return {
        "healthy": None,
        "outage": ScenarioSpec((outage,)),
        "drizzle": ScenarioSpec((drizzle,)),
    }


def main() -> int:
    jobs = probabilistic_workload(80, seed=23)
    configs = [SchedulerConfig("fcfs", "easy"), SchedulerConfig("fcfs", "list")]
    failures = 0

    with tempfile.TemporaryDirectory(prefix="repro-chaos-rerun-") as tmp:
        cache_dir = Path(tmp)
        run_ids: dict[str, str] = {}

        def capture(event) -> None:
            if event.kind == "grid-started" and event.run_id:
                # The engine names the scenario in workload_name.
                run_ids[event.run_id] = event.workload_name

        engine = ExperimentEngine(
            workers=2, cache=cache_dir, on_event=capture, handle_signals=False
        )
        grids = engine.run_scenarios(
            jobs, scenarios(), total_nodes=TOTAL_NODES, configs=configs,
        )
        print(f"swept {len(grids)} scenario grid(s), {len(run_ids)} run id(s)")
        if len(run_ids) != len(grids):
            print("FAIL: expected one journaled run per scenario")
            failures += 1

        # Rerun the sweep: every cell must come back from the cache.
        rerun_engine = ExperimentEngine(
            workers=1, cache=cache_dir, handle_signals=False
        )
        for name, spec in scenarios().items():
            again = rerun_engine.run(
                jobs,
                workload_name=f"workload[{name}]",
                total_nodes=TOTAL_NODES,
                configs=configs,
                scenario=spec,
            )
            stats = rerun_engine.stats
            replay = read_journal(journal_path(cache_dir / "runs", stats.run_id))
            if stats.run_id not in run_ids:
                print(f"FAIL: rerun of {name} journaled under a new id {stats.run_id}")
                failures += 1
            elif stats.simulated != 0 or stats.cache_hits != len(configs):
                print(
                    f"FAIL: rerun of {stats.run_id} ({name}) re-simulated "
                    f"{stats.simulated} cell(s)"
                )
                failures += 1
            elif any(
                again.cells[key].objective != cell.objective
                for key, cell in grids[name].cells.items()
            ):
                print(f"FAIL: rerun of {stats.run_id} ({name}) changed an objective")
                failures += 1
            elif replay.resumes != 1:
                print(
                    f"FAIL: journal {stats.run_id} holds {replay.resumes} "
                    f"resumed marker(s) after one rerun"
                )
                failures += 1
            else:
                print(
                    f"rerun {stats.run_id} ({name}): all {stats.cache_hits} "
                    f"cells cached, journal continued"
                )

        # Audit every journal against the cache.
        cache = ResultCache(cache_dir)
        for summary in list_runs(cache_dir / "runs"):
            audit = verify_run(
                summary.run_id, journal_dir=cache_dir / "runs", cache=cache
            )
            print(audit.describe())
            if not audit.ok:
                failures += 1

    print("chaos-rerun: OK" if not failures else f"chaos-rerun: {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
