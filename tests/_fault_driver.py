"""Subprocess driver for the pool's fault matrix.

Runs one small journaled grid on two pool workers with one injected
fault and prints two lines: ``READY`` just before the grid starts, then
``DONE`` followed by a JSON report once it finished::

    python -m tests._fault_driver CASE JOURNAL_DIR

Cases (faulty cells of one row, ``crashy``, ``stoppy`` or ``sleepy``,
ahead of three healthy cells; no case sets ``cell_timeout`` but
``hung``):

* ``sigkill`` — a worker SIGKILLs itself;
* ``stop-all`` — two cells each SIGSTOP their worker, so both workers
  stop;
* ``stop-one`` — one cell SIGSTOPs its worker, the other worker stays
  live;
* ``hung`` — one cell sleeps in its worker for five minutes;
  ``cell_timeout=1``;
* ``orphan`` — two cells sleep in their workers for three seconds: the
  case the driver is killed in, to see its workers exit.

A row faults only inside a pool worker, which it recognises by a pid
other than the driver's: the serial fallback, in the driver, computes
the cell.  A faulting worker first writes its pid to
``JOURNAL_DIR/<pid>.fault``.  The report lists the reason of every
charged retry and the key of its cell, the pids of the faulted workers,
the number of ``completed`` journal records per fingerprint and the
run's stats.  The
driver returns normally, so the parent also sees whether the interpreter
exits once the grid is done.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from pathlib import Path

from repro.experiments import pool
from repro.experiments.engine import ExperimentEngine
from repro.experiments.journal import journal_path
from repro.experiments.paper import probabilistic_workload
from repro.experiments.runner import SchedulerConfig
from repro.schedulers import register_row
from repro.schedulers.baselines import KeyOrderPolicy

#: Forked workers inherit this value, so it names the driver in them too.
DRIVER_PID = os.getpid()

HEALTHY = [
    SchedulerConfig("fcfs", "easy"),
    SchedulerConfig("fcfs", "list"),
    SchedulerConfig("psrs", "easy"),
]


def _faulty_row(fault: signal.Signals | float, marks: Path):
    """A row whose cells fault in a pool worker: send the signal ``fault``
    to the worker itself, or sleep ``fault`` seconds in it."""

    def order(total_nodes, weight, threshold):
        pid = os.getpid()
        if pid != DRIVER_PID:
            (marks / f"{pid}.fault").touch()
            if isinstance(fault, signal.Signals):
                os.kill(pid, fault)
            else:
                time.sleep(fault)
        return KeyOrderPolicy(lambda job: job.submit_time, "faulty")

    return order


#: case -> (row, fault, faulty columns, pool budgets, engine kwargs)
CASES = {
    "sigkill": (
        "crashy", signal.SIGKILL, ("easy",),
        dict(MAX_RETRIES=1, MAX_WORKER_REPLACEMENTS=5), {},
    ),
    "stop-all": ("stoppy", signal.SIGSTOP, ("easy", "list"), dict(MAX_RETRIES=0), {}),
    "stop-one": ("stoppy", signal.SIGSTOP, ("easy",), dict(MAX_RETRIES=0), {}),
    "hung": (
        "sleepy", 300.0, ("easy",),
        dict(MAX_RETRIES=0, MAX_WORKER_REPLACEMENTS=5), dict(cell_timeout=1.0),
    ),
    "orphan": ("sleepy", 3.0, ("easy", "list"), {}, {}),
}


def main(argv: list[str]) -> int:
    case, journal_dir = argv[1], Path(argv[2])
    row, fault, columns, budgets, kwargs = CASES[case]
    for name, value in dict(budgets, RETRY_BACKOFF=0.01).items():
        setattr(pool, name, value)
    journal_dir.mkdir(parents=True, exist_ok=True)
    register_row(row, _faulty_row(fault, journal_dir), columns=columns)
    configs = [SchedulerConfig(row, column) for column in columns] + HEALTHY
    engine = ExperimentEngine(workers=2, journal_dir=journal_dir, **kwargs)
    print("READY", flush=True)
    with engine:
        engine.run(probabilistic_workload(40, seed=3), total_nodes=256, configs=configs)
    stats = engine.stats
    reasons: list[str] = []
    charged: list[str] = []
    completed: dict[str, int] = {}
    with open(journal_path(journal_dir, stats.run_id), encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("kind") != "cell":
                continue
            if record["state"] in ("failed", "abandoned"):
                reasons.append(record["detail"])
                charged.append(record["key"])
            elif record["state"] == "completed":
                completed[record["fp"]] = completed.get(record["fp"], 0) + 1
    report = dict(
        cells=len(configs),
        simulated=stats.simulated,
        worker_replacements=stats.worker_replacements,
        degraded_cells=stats.degraded_cells,
        reasons=reasons,
        charged=charged,
        faulted=sorted(int(mark.stem) for mark in journal_dir.glob("*.fault")),
        completed=completed,
    )
    print("DONE", json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
