"""Shared benchmark machinery.

Every benchmark regenerates one paper artifact (table or figure) at a
configurable scale, prints the same rows the paper reports, and asserts the
paper's qualitative conclusions (who wins, roughly by what factor).

Scale control::

    pytest benchmarks/ --benchmark-only                     # default scale
    REPRO_BENCH_SCALE=5000 pytest benchmarks/ --benchmark-only
    REPRO_BENCH_SCALE=full pytest benchmarks/ --benchmark-only   # paper counts (slow!)

Execution control (the experiment engine)::

    REPRO_BENCH_WORKERS=8 pytest benchmarks/ --benchmark-only    # parallel cells
    REPRO_BENCH_CACHE=.repro-cache pytest benchmarks/ ...        # reuse results

``REPRO_BENCH_WORKERS`` fans grid cells out over that many processes;
``REPRO_BENCH_CACHE`` points the content-addressed result cache at a
directory, so repeated benchmark sessions at the same scale skip finished
simulations.  Both default to the old serial, uncached behaviour.

Absolute times come from ``pytest-benchmark``; the printed tables carry the
objective values.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.engine import ExperimentEngine
from repro.experiments.paper import EXPERIMENTS, run_experiment

#: Default jobs per workload for benchmark runs: large enough to develop the
#: backlog the paper's conclusions rest on, small enough for minutes-scale runs.
DEFAULT_SCALE = 1000


def bench_scale(spec_id: str) -> int:
    raw = os.environ.get("REPRO_BENCH_SCALE", "")
    if raw == "full":
        return EXPERIMENTS[spec_id].paper_scale
    if raw:
        return int(raw)
    return DEFAULT_SCALE


def bench_workers() -> int:
    """Engine worker processes (``REPRO_BENCH_WORKERS``, default serial)."""
    return int(os.environ.get("REPRO_BENCH_WORKERS", "1"))


def bench_result_cache() -> str | None:
    """On-disk result cache directory (``REPRO_BENCH_CACHE``, default off)."""
    return os.environ.get("REPRO_BENCH_CACHE") or None


@pytest.fixture(scope="session")
def experiment_cache():
    """Memoise experiment runs: figures reuse their table's grids."""
    cache: dict[tuple, object] = {}

    def get(experiment_id: str, regimes: tuple[str, ...] | None = None):
        key = (experiment_id, regimes, bench_scale(experiment_id))
        if key not in cache:
            cache[key] = run_experiment(
                experiment_id,
                scale=bench_scale(experiment_id),
                regimes=list(regimes) if regimes else None,
                engine=ExperimentEngine(
                    workers=bench_workers(), cache=bench_result_cache()
                ),
            )
        return cache[key]

    return get


def print_reports(result) -> None:
    for regime, report in result.reports.items():
        print(f"\n=== {result.spec.experiment_id} ({regime}) ===")
        print(report)
        print(f"rank agreement with paper: {result.agreement[regime]:.2f}")


def record_decision_times(benchmark, result) -> None:
    """Attach per-cell decision-point timing to the benchmark record.

    ``decision_time`` is the wall-clock the simulator spent inside
    ``select_jobs`` — the decision points proper, excluding queue
    bookkeeping — so the cost tables can separate planning cost from
    event handling.  Stored in ``extra_info`` (it survives into the
    pytest-benchmark JSON) and printed alongside the reports.
    """
    for regime, grid in result.grids.items():
        for key, cell in grid.cells.items():
            benchmark.extra_info[f"decision_time[{regime}][{key}]"] = (
                cell.decision_time
            )
        print(f"\n--- decision-point time ({regime}) ---")
        for key, cell in grid.cells.items():
            share = (
                cell.decision_time / cell.compute_time
                if cell.compute_time > 0
                else 0.0
            )
            print(
                f"{key:24s} decision={cell.decision_time:.4f}s "
                f"compute={cell.compute_time:.4f}s ({share:.0%} of compute)"
            )
