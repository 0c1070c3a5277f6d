"""Subprocess driver for the crash-and-rerun tests.

Runs a deliberately slow grid (every cell pauses in its order-policy
factory) through a journaled, cached :class:`ExperimentEngine`, printing
the run id first so the parent test can SIGKILL it mid-run and then make
the same call itself, which continues the same journal::

    python -m tests._grid_driver CACHE_DIR run       # plain run, handlers off
    python -m tests._grid_driver CACHE_DIR sigint    # graceful-shutdown mode
    python -m tests._grid_driver CACHE_DIR scenario  # spec-driven sweep

In ``sigint`` mode the engine installs its signal handlers; on SIGINT it
journals the remainder as ``interrupted``, prints ``INTERRUPTED <run_id>``
and exits 130 — the same contract the CLI exposes.

The grid-shaping helpers (:func:`build_configs`, :data:`GRID_KWARGS`,
:func:`make_jobs`) are imported by the parent test too, so the rerunning
process registers the identical rows and computes the identical run id.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro.experiments.engine import ExperimentEngine
from repro.experiments.journal import RunInterrupted
from repro.experiments.paper import probabilistic_workload
from repro.experiments.runner import SchedulerConfig
from repro.schedulers import register_row
from repro.schedulers.baselines import KeyOrderPolicy

#: Seconds each slow cell pauses before simulating — long enough for the
#: parent to observe partial progress, short enough to keep the suite fast.
CELL_DELAY = 0.35

#: Number of slow rows; with the fcfs reference row the grid has
#: ``N_SLOW_ROWS + 1`` cells.
N_SLOW_ROWS = 9

#: Grid-shaping kwargs shared by the driver and the rerunning test — any
#: drift between the two would change the run id: the rerun would start a
#: journal of its own instead of continuing the driver's.
GRID_KWARGS = dict(total_nodes=256, workload_name="slow-grid")


def make_scenario():
    """The spec of the ``scenario`` mode; the rerunning test rebuilds it.

    Built in a function (not a module constant) so importing the driver
    stays side-effect free; equal specs digest equally, so both
    processes compute the identical run id.
    """
    from repro.scenarios import CancellationModel, LoadSurge, ScenarioSpec

    return ScenarioSpec(
        (
            LoadSurge(at=200.0, duration=800.0, count=12, max_nodes=16),
            CancellationModel(fraction=0.1),
        ),
        seed=13,
    )


def _slow_order(total_nodes, weight, threshold):
    time.sleep(CELL_DELAY)
    return KeyOrderPolicy(lambda job: job.submit_time, "slow")


def build_configs() -> list[SchedulerConfig]:
    """Register the slow rows (idempotent) and return the grid's configs."""
    configs = [SchedulerConfig("fcfs", "easy")]
    for i in range(N_SLOW_ROWS):
        register_row(f"slow{i}", _slow_order, columns=("easy",), replace=True)
        configs.append(SchedulerConfig(f"slow{i}", "easy"))
    return configs


def make_jobs():
    return probabilistic_workload(80, seed=11)


def main(argv: list[str]) -> int:
    cache_dir = Path(argv[1])
    mode = argv[2] if len(argv) > 2 else "run"
    jobs = make_jobs()
    configs = build_configs()
    engine = ExperimentEngine(
        workers=1, cache=cache_dir, handle_signals=(mode == "sigint")
    )
    kwargs = dict(GRID_KWARGS, configs=configs)
    if mode == "scenario":
        kwargs["scenario"] = make_scenario()
    print(f"RUN_ID {engine.run_id_for(jobs, **kwargs)}", flush=True)
    try:
        engine.run(jobs, **kwargs)
    except RunInterrupted as exc:
        print(f"INTERRUPTED {exc.run_id}", flush=True)
        return 130
    print("DONE", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
