"""Grid runner: every scheduler configuration over one workload.

Produces the raw material of the paper's Tables 3–6 (objective values and
percentages against the FCFS+EASY reference) and Tables 7–8 (computation
time of the scheduling algorithms).

Computation time is measured by wrapping the scheduler in a
:class:`TimingScheduler` proxy that accumulates the wall-clock spent inside
scheduler callbacks only — queue management and start decisions — excluding
simulator bookkeeping, which is what the paper's "computation time to
execute the various algorithms" refers to.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core import vector
from repro.core.job import Job
from repro.core.machine import Machine
from repro.core.packing import PackedJobs, unpack_jobs
from repro.core.scheduler import CoalescingCaps, Scheduler, SchedulerContext
from repro.core.simulator import ScenarioInputs, SimulationConfig, Simulator
from repro.metrics.objectives import (
    average_response_time,
    average_weighted_response_time,
)
from repro.schedulers.registry import SchedulerConfig, build_scheduler


class TimingScheduler(Scheduler):
    """Delegating proxy that accumulates time spent in scheduler callbacks.

    The proxy makes the inner scheduler's coalescing guarantees its own
    (:meth:`coalescing_caps`), so the simulator's event-coalescing fast
    path engages on the engine path as it does on a bare scheduler.  The
    callbacks the simulator then skips — ones the guarantees prove to be
    no-ops — are never entered, so ``elapsed`` does not count them.
    """

    def __init__(self, inner: Scheduler) -> None:
        self.inner = inner
        self.name = inner.name
        self.uses_estimates = inner.uses_estimates
        self.elapsed = 0.0

    def reset(self) -> None:
        self.elapsed = 0.0
        self.inner.reset()

    def on_submit(self, job: Job, ctx: SchedulerContext) -> None:
        t0 = time.perf_counter()
        self.inner.on_submit(job, ctx)
        self.elapsed += time.perf_counter() - t0

    def on_submit_run(self, jobs: "list[Job]", ctx: SchedulerContext) -> None:
        t0 = time.perf_counter()
        self.inner.on_submit_run(jobs, ctx)
        self.elapsed += time.perf_counter() - t0

    def on_complete(self, job: Job, ctx: SchedulerContext) -> None:
        t0 = time.perf_counter()
        self.inner.on_complete(job, ctx)
        self.elapsed += time.perf_counter() - t0

    def on_cancel(self, job: Job, ctx: SchedulerContext) -> None:
        t0 = time.perf_counter()
        self.inner.on_cancel(job, ctx)
        self.elapsed += time.perf_counter() - t0

    def next_wakeup(self, ctx: SchedulerContext) -> float | None:
        t0 = time.perf_counter()
        out = self.inner.next_wakeup(ctx)
        self.elapsed += time.perf_counter() - t0
        return out

    def select_jobs(self, ctx: SchedulerContext) -> list[Job]:
        t0 = time.perf_counter()
        out = self.inner.select_jobs(ctx)
        self.elapsed += time.perf_counter() - t0
        return out

    def coalescing_caps(self) -> CoalescingCaps:
        return self.inner.coalescing_caps()

    @property
    def pending_count(self) -> int:
        return self.inner.pending_count


@dataclass(frozen=True, slots=True)
class CellResult:
    """Measured outcome of one grid cell."""

    config: SchedulerConfig
    objective: float
    compute_time: float     # seconds spent inside the scheduling algorithm
    max_queue_length: int
    makespan: float
    decision_time: float = 0.0  # seconds inside select_jobs at decision points
    # Resilience metrics (all zero when the cell ran without failure
    # injection; see repro.failures and docs/architecture.md).
    interrupted_jobs: int = 0
    wasted_node_seconds: float = 0.0
    lost_node_seconds: float = 0.0
    requeue_delay: float = 0.0

    def pct_vs(self, reference: float) -> float:
        """Percentage difference against a reference value (paper style)."""
        if reference == 0:
            return 0.0
        return (self.objective - reference) / reference * 100.0


@dataclass(slots=True)
class GridResult:
    """All cells of one (workload, regime) grid."""

    workload_name: str
    weighted: bool
    total_nodes: int
    n_jobs: int
    cells: dict[str, CellResult] = field(default_factory=dict)
    #: Cell key the percentages are computed against; ``None`` selects
    #: ``fcfs/easy`` when present, else the first cell in grid order.
    reference_key: str | None = None
    #: Content-address of each cell (cache fingerprint), filled by the
    #: engine.  Part of the run-lifecycle audit trail: resume tests and
    #: :func:`repro.experiments.journal.verify_run` compare these for
    #: bit-identity.  Empty for grids built before PR 5 or by hand.
    fingerprints: dict[str, str] = field(default_factory=dict)

    @property
    def reference(self) -> CellResult:
        """The 0 % baseline cell.

        ``reference_key`` when set; otherwise FCFS + EASY (the paper's
        reference), falling back to the grid's first cell for custom
        config lists that omit it.
        """
        if not self.cells:
            raise KeyError("grid has no cells yet; run it before asking for a reference")
        if self.reference_key is not None:
            if self.reference_key not in self.cells:
                raise KeyError(
                    f"reference cell {self.reference_key!r} is not in the grid; "
                    f"available cells: {', '.join(self.cells)}"
                )
            return self.cells[self.reference_key]
        if "fcfs/easy" in self.cells:
            return self.cells["fcfs/easy"]
        return next(iter(self.cells.values()))

    def _cell(self, key: str) -> CellResult:
        try:
            return self.cells[key]
        except KeyError:
            raise KeyError(
                f"unknown grid cell {key!r}; available cells: "
                f"{', '.join(self.cells) or '(none)'}"
            ) from None

    def pct(self, key: str) -> float:
        return self._cell(key).pct_vs(self.reference.objective)

    def compute_pct(self, key: str) -> float:
        """Computation time vs the reference cell (Tables 7–8 layout)."""
        ref = self.reference.compute_time
        if ref == 0:
            return 0.0
        return (self._cell(key).compute_time - ref) / ref * 100.0


ProgressFn = Callable[[SchedulerConfig, CellResult], None]


def simulate_cell(
    config: SchedulerConfig,
    jobs: "Sequence[Job] | PackedJobs",
    *,
    total_nodes: int = 256,
    weighted: bool = False,
    recompute_threshold: float = 2.0 / 3.0,
    scenario: "ScenarioInputs | None" = None,
    cancel_over_limit: bool = False,
    backend: str | None = None,
) -> CellResult:
    """Simulate one grid cell and measure the paper's metrics.

    The single place a cell is actually computed — the serial
    :func:`run_grid`, the parallel engine's workers, and its cache misses
    all funnel through here, which is what makes parallel and serial runs
    bit-identical.

    ``jobs`` may be a :class:`~repro.core.packing.PackedJobs` columnar
    buffer (the zero-copy dispatch format); it is unpacked to the same
    ``Job`` tuple the caller would have shipped, so results are identical
    either way.

    ``scenario`` and ``cancel_over_limit`` are the *compiled* scenario
    (see :mod:`repro.scenarios`): the disturbance bundle — ``None`` for
    the healthy baseline — and the estimate-limit kill flag.  The
    resilience metrics of the result are populated when failures are
    injected.  ``scenario.recovery`` must be a spec string here (not a
    policy object) so the cell stays picklable and cache-fingerprintable.

    ``backend`` selects the simulation kernels (see
    :func:`repro.core.vector.resolve_backend`); both backends produce
    bit-identical cells, which is why the backend is absent from the cache
    fingerprint.  Under the numpy backend the objective reduces over the
    run's columnar buffers (:class:`repro.core.vector.ResultColumns`) with
    the exact-summation kernels — same bits as the scalar loops.
    """
    if isinstance(jobs, PackedJobs):
        jobs = unpack_jobs(jobs)
    scheduler = TimingScheduler(
        build_scheduler(
            config, total_nodes, weighted=weighted,
            recompute_threshold=recompute_threshold,
        )
    )
    result = Simulator(
        Machine(total_nodes),
        scheduler,
        SimulationConfig(backend=backend, cancel_over_limit=cancel_over_limit),
    ).run(jobs, scenario=scenario)
    if result.columns is not None:
        objective = (
            vector.average_weighted_response_time_columns(result.columns)
            if weighted
            else vector.average_response_time_columns(result.columns)
        )
    else:
        objective = (
            average_weighted_response_time(result.schedule)
            if weighted
            else average_response_time(result.schedule)
        )
    return CellResult(
        config=config,
        objective=objective,
        compute_time=scheduler.elapsed,
        max_queue_length=result.max_queue_length,
        makespan=result.schedule.makespan,
        decision_time=result.decision_time,
        interrupted_jobs=result.interrupted_jobs,
        wasted_node_seconds=result.wasted_node_seconds,
        lost_node_seconds=result.lost_node_seconds,
        requeue_delay=result.requeue_delay,
    )


def run_grid(
    jobs: Sequence[Job],
    *,
    workload_name: str = "workload",
    total_nodes: int = 256,
    weighted: bool = False,
    configs: Sequence[SchedulerConfig] | None = None,
    progress: ProgressFn | None = None,
    reference_key: str | None = None,
    backend: str | None = None,
) -> GridResult:
    """Run every configuration over ``jobs`` and collect the paper's metrics.

    ``weighted`` selects both the objective (ART vs AWRT) and the ordering
    weight SMART/PSRS use internally — matching the paper, which tunes and
    evaluates each regime separately.  ``backend`` selects the simulation
    kernels per cell (bit-identical either way).

    This is a thin serial wrapper over
    :class:`repro.experiments.engine.ExperimentEngine` (one worker, no
    cache); use the engine directly for parallel fan-out, the on-disk
    result cache, and structured progress events.
    """
    from repro.experiments.engine import ExperimentEngine

    return ExperimentEngine(workers=1, backend=backend).run(
        jobs,
        workload_name=workload_name,
        total_nodes=total_nodes,
        weighted=weighted,
        configs=configs,
        progress=progress,
        reference_key=reference_key,
    )
