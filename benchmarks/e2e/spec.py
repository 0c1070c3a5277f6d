"""The benchmark declared as data: workloads, metrics and the manifest.

Nothing here imports ``repro``: the runner's parent process, the
self-check and ``compare.py`` read these tables without paying the
program's import.  ``manifest()`` is the content of ``BENCHMARK.json``;
the self-check asserts the committed file equals it, so the table below
is the single place a workload or a metric is declared.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Machine size of every workload (the CTC SP2 batch partition).
TOTAL_NODES = 256

#: Seed of the base CTC-like draw.  ``--seed`` perturbs this trace
#: rather than drawing a fresh one, see ``drivers.job_stream``.
TRACE_SEED = 42

#: ``--seed`` default; the seed ``expected.json`` is pinned for.
PINNED_SEED = 42

#: ``--quick`` divides every job count by this.
QUICK_DIVISOR = 20

#: Seconds one run measures (``--seconds`` default, ``run_seconds``).
RUN_SECONDS = 15

#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3


@dataclass(frozen=True)
class Workload:
    """One row of the config matrix.

    Every workload feeds the program the same job-stream recipe at its
    own size: ``jobs`` CTC-like jobs capped to 256 nodes, jittered by the
    seed and round-tripped through SWF.  The contract's time cap is why
    ``jobs`` is smaller than the issue's size, which each ``why`` names.
    """

    name: str
    #: ``engine``: ``ExperimentEngine(workers=1, cache=None).run`` in
    #: process.  ``cli``: ``python -m repro.experiments.cli all`` as a
    #: subprocess with two workers; ``jobs`` is its ``--scale``.
    driver: str
    jobs: int
    #: Cell keys for the engine driver; the CLI driver runs every table
    #: and figure (13 configurations, both regimes).
    cells: tuple[str, ...]
    weighted: bool
    #: ``ScenarioSpec.to_dict()`` form, or ``None`` for the healthy run.
    scenario: dict | None
    #: CLI driver only: ``cold`` gives every repetition an empty cache,
    #: ``warm`` reruns against the cache a cold sweep filled in set-up.
    cache: str | None
    #: Repetitions measured even when one outlasts ``--seconds``.
    min_reps: int
    why: str

    @property
    def pinned_as(self) -> str:
        """Key of this workload's cells in ``expected.json``.

        The two sweeps run one command on one input, so they share one
        set of pinned cells.
        """
        return self.name if self.driver == "engine" else "paper_sweep"

    def size(self, scale: str) -> int:
        if scale == "quick":
            return max(self.jobs // QUICK_DIVISOR, 1)
        return self.jobs


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="ctc_full_easy",
        driver="engine",
        jobs=3_000,
        cells=("fcfs/list", "fcfs/easy", "smart-ffia/list"),
        weighted=False,
        scenario=None,
        cache=None,
        min_reps=3,
        why="{jobs} CTC-like jobs (paper trace: 79,164), cells fcfs/list, fcfs/easy, "
        "smart-ffia/list: the event loop and the EASY walk do the work; the profile "
        "is a sixth of it: reserve and release, never allocate",
    ),
    Workload(
        name="ctc_conservative",
        driver="engine",
        jobs=600,
        cells=("fcfs/conservative", "psrs/conservative", "smart-ffia/conservative"),
        weighted=False,
        scenario=None,
        cache=None,
        min_reps=3,
        why="{jobs}-job CTC prefix (issue size 4,000; 10k jobs cost 120 s), three "
        "conservative cells: write-heavy core.profile, allocate/reserve/release "
        "re-reserving the queue at every decision",
    ),
    Workload(
        name="ctc_disturbed",
        driver="engine",
        jobs=1_000,
        cells=("fcfs/list", "fcfs/easy", "gg/list"),
        weighted=False,
        scenario={
            "seed": 7,
            "components": [
                {"kind": "failures", "mtbf": 40_000.0, "mttr": 3600.0,
                 "recovery": "resubmit"},
                {"kind": "cancellations", "fraction": 0.05},
            ],
        },
        cache=None,
        min_reps=3,
        why="{jobs} CTC jobs (issue size 20,000) under node failures with resubmit and "
        "5% cancellations, cells fcfs/list, fcfs/easy, gg/list: the general event "
        "path of NODE_DOWN/UP, kills, requeues and withdrawals",
    ),
    Workload(
        name="paper_sweep_cold",
        driver="cli",
        jobs=100,
        cells=(),
        weighted=False,
        scenario=None,
        cache="cold",
        min_reps=3,
        why="CLI subprocess 'all --scale {jobs} --workers 2' (issue scale 500) on an empty "
        "cache: every table and figure; fingerprinting, store dispatch, cache "
        "put, journal append and render are a visible share",
    ),
    Workload(
        name="paper_sweep_warm",
        driver="cli",
        jobs=100,
        cells=(),
        weighted=False,
        scenario=None,
        cache="warm",
        min_reps=3,
        why="the same 'all --scale {jobs}' command against the cache filled in set-up: "
        "import, generate, fingerprint, verified cache get, journal and "
        "render, the resume / iterate-on-rendering path",
    ),
)

WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end: share of the parent's median by which the metric may
    #: worsen before a change is rejected.  Per-layer metrics have none.
    bound: float | None
    #: End-to-end: the definition.  Per-layer: the end-to-end metric and
    #: workload it should move (README's interaction list).
    note: str


END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25,
           "process spawn to ready-to-measure: interpreter start, import repro, "
           "trace generation, SWF round trip, scenario compile, cache-dir "
           "preparation (and the populating cold sweep on paper_sweep_warm); "
           "median of SETUP_SAMPLES fresh processes"),
    Metric("wall_s", "s", "lower", 0.25,
           "wall-clock of one repetition of the measured section; the fastest of "
           "the run's repetitions (see README, Steadiness)"),
    Metric("sim_jobs_per_s", "jobs/s", "higher", 0.25,
           "sum over delivered cells of the jobs in the cell, divided by wall_s"),
    Metric("cpu_s", "s", "lower", 0.25,
           "user+sys CPU of the workload's whole process tree in one repetition; "
           "the cheapest of the run's repetitions"),
    Metric("peak_rss_mb", "MB", "lower", 0.10,
           "ru_maxrss of the largest process that ran the program"),
)

#: Reported by every run and gated by compare.py, but left out of
#: BENCHMARK.json: it must equal 0, and the contract takes no metric
#: whose healthy value is 0.  The contract's ``failed``/``attempted``
#: carry it instead.
FAILED_SHARE = Metric("failed_share", "ratio", "lower", 0.0,
                      "cells failed / cells attempted; must equal 0")


def _layer(name: str, unit: str, better: str, note: str) -> Metric:
    return Metric(name, unit, better, None, note)


PER_LAYER: tuple[Metric, ...] = (
    # workloads
    _layer("workloads.generate_s", "s", "lower",
           "setup_s on ctc_full_easy; wall_s on paper_sweep_warm"),
    _layer("workloads.jobs", "count", "higher", "size of the fed stream(s)"),
    _layer("workloads.swf_write_s", "s", "lower", "setup_s on ctc_full_easy"),
    _layer("workloads.swf_parse_s", "s", "lower", "setup_s on ctc_full_easy"),
    _layer("workloads.swf_skipped", "count", "lower", "rows the SWF parser dropped"),
    # core.packing
    _layer("packing.pack_s", "s", "lower", "wall_s on paper_sweep_cold/warm"),
    _layer("packing.unpack_s", "s", "lower", "wall_s on paper_sweep_cold/warm"),
    _layer("packing.fingerprint_s", "s", "lower", "wall_s on paper_sweep_cold/warm"),
    _layer("packing.bytes", "B", "lower",
           "wall_s on paper_sweep_*; peak_rss_mb on ctc_full_easy"),
    # core.simulator
    _layer("simulator.run_s", "s", "lower", "wall_s on ctc_full_easy, ctc_disturbed"),
    _layer("simulator.self_s", "s", "lower", "wall_s on ctc_full_easy, ctc_disturbed"),
    _layer("simulator.decision_points", "count", "lower", "wall_s on ctc_disturbed"),
    # Measured 0 on every workload: simulate_cell wraps each scheduler in
    # TimingScheduler, which does not forward coalescing_caps(), so the
    # fast path never engages on the engine path (README, Measured).  The
    # issue's 43 % on ctc_full_easy against 1.9 % on ctc_disturbed was
    # sized on a bare Simulator and is not met.
    _layer("simulator.coalesced_decision_points", "count", "higher",
           "0 today; wall_s on ctc_full_easy once the engine path coalesces"),
    _layer("simulator.coalesced_share", "ratio", "higher",
           "0 on all five workloads today; the number to watch when "
           "TimingScheduler forwards coalescing_caps()"),
    _layer("simulator.coalesced_share_fcfs_easy", "ratio", "higher",
           "the fcfs/easy cell alone; 0 on ctc_full_easy and ctc_disturbed today"),
    _layer("simulator.max_queue_length", "count", "lower", "backlog depth reached"),
    _layer("simulator.cancelled_queued", "count", "lower", "ctc_disturbed only"),
    _layer("simulator.killed_running", "count", "lower", "ctc_disturbed only"),
    # core.state
    _layer("state.calls", "count", "lower", "wall_s on ctc_disturbed, then ctc_full_easy"),
    _layer("state.self_s", "s", "lower", "wall_s on ctc_disturbed, then ctc_full_easy"),
    _layer("state.deltas", "count", "lower", "wall_s on ctc_disturbed"),
    _layer("state.snapshots", "count", "lower", "wall_s on ctc_full_easy"),
    # core.profile
    _layer("profile.allocate_calls", "count", "lower",
           "wall_s on ctc_conservative; 0 on ctc_full_easy"),
    _layer("profile.allocate_s", "s", "lower",
           "wall_s on ctc_conservative (measured three fifths of the run)"),
    _layer("profile.earliest_start_calls", "count", "lower", "wall_s on ctc_full_easy"),
    _layer("profile.earliest_start_s", "s", "lower", "wall_s on ctc_full_easy (small)"),
    _layer("profile.reserve_calls", "count", "lower", "wall_s on ctc_conservative"),
    _layer("profile.reserve_s", "s", "lower", "wall_s on ctc_conservative"),
    _layer("profile.release_calls", "count", "lower", "wall_s on ctc_conservative"),
    _layer("profile.release_s", "s", "lower", "wall_s on ctc_conservative"),
    _layer("profile.clone_calls", "count", "lower", "wall_s on ctc_full_easy"),
    _layer("profile.clone_s", "s", "lower", "wall_s on ctc_full_easy"),
    _layer("profile.self_s", "s", "lower",
           "largest layer on ctc_conservative (measured 62% of the run); 15% on "
           "ctc_full_easy, not the issue's under 10%; no move on paper_sweep_warm"),
    # core.vector / metrics
    _layer("vector.reduce_calls", "count", "lower", "wall_s on ctc_full_easy"),
    _layer("vector.reduce_s", "s", "lower", "wall_s on ctc_full_easy"),
    _layer("metrics.objective_s", "s", "lower", "wall_s on ctc_full_easy"),
    _layer("metrics.validate_s", "s", "lower",
           "none: Schedule.validate runs outside the timed section"),
    # schedulers
    _layer("schedulers.callback_s", "s", "lower", "wall_s on ctc_full_easy, ctc_disturbed"),
    _layer("schedulers.select_s", "s", "lower", "wall_s on ctc_full_easy (EASY walk)"),
    _layer("schedulers.select_calls", "count", "lower", "wall_s on ctc_disturbed"),
    _layer("schedulers.self_s", "s", "lower", "wall_s on ctc_full_easy, ctc_disturbed"),
    _layer("schedulers.starts_per_select", "ratio", "higher",
           "jobs started per select_jobs call, the useful-outcome ratio"),
    _layer("schedulers.reorder_calls", "count", "lower", "wall_s on paper_sweep_cold"),
    _layer("schedulers.reorder_s", "s", "lower",
           "wall_s on paper_sweep_cold (SMART/PSRS off-line recompute)"),
    # scenarios / failures
    _layer("scenarios.compile_s", "s", "lower", "setup_s on ctc_disturbed"),
    _layer("scenarios.events", "count", "lower", "failures + cancellations compiled"),
    _layer("failures.killed", "count", "lower", "ctc_disturbed only"),
    _layer("failures.audit_s", "s", "lower",
           "none: audit_run runs outside the timed section"),
    # experiments.engine
    _layer("engine.run_s", "s", "lower", "wall_s everywhere"),
    _layer("engine.cells", "count", "higher", "cells delivered per repetition"),
    _layer("engine.simulated", "count", "lower", "wall_s on paper_sweep_cold"),
    _layer("engine.cache_hits", "count", "higher", "wall_s on paper_sweep_warm"),
    _layer("engine.retries", "count", "lower", "must be 0"),
    _layer("engine.degraded_cells", "count", "lower", "must be 0"),
    _layer("engine.fingerprint_s", "s", "lower", "wall_s on paper_sweep_warm"),
    _layer("engine.cell_sum_s", "s", "lower", "cpu_s on paper_sweep_cold"),
    _layer("engine.slowest_cell_s", "s", "lower",
           "wall_s on paper_sweep_cold: the 2-worker critical path"),
    _layer("engine.overhead_s", "s", "lower",
           "run_s - cell_sum_s/workers; wall_s and cpu_s on paper_sweep_cold"),
    _layer("engine.worker_busy_share", "ratio", "higher", "wall_s on paper_sweep_cold"),
    # experiments.engine.ResultCache
    _layer("cache.get_calls", "count", "lower", "wall_s on paper_sweep_warm"),
    _layer("cache.get_s", "s", "lower", "wall_s on paper_sweep_warm"),
    _layer("cache.put_calls", "count", "lower", "wall_s on paper_sweep_cold"),
    _layer("cache.put_s", "s", "lower", "wall_s on paper_sweep_cold"),
    _layer("cache.hit_ratio", "ratio", "higher", "1.0 on paper_sweep_warm"),
    _layer("cache.bytes", "B", "lower", "wall_s on paper_sweep_cold"),
    # experiments.journal / experiments.workload_store
    _layer("journal.record_calls", "count", "lower", "wall_s on paper_sweep_cold"),
    _layer("journal.record_s", "s", "lower", "wall_s on paper_sweep_cold (fsync)"),
    _layer("journal.bytes", "B", "lower", "wall_s on paper_sweep_cold"),
    _layer("store.register_s", "s", "lower", "wall_s on paper_sweep_cold"),
    _layer("store.bytes_per_cell", "B", "lower", "wall_s on paper_sweep_cold"),
    # experiments.tables / experiments.cli
    _layer("tables.render_s", "s", "lower", "wall_s on paper_sweep_warm"),
    _layer("tables.bytes", "B", "lower", "report files written"),
    _layer("cli.import_s", "s", "lower",
           "wall_s on paper_sweep_warm (measured 0.52 s of 0.67 s)"),
    _layer("cli.main_s", "s", "lower", "wall_s on paper_sweep_warm"),
    _layer("cli.process_s", "s", "lower", "wall_s on paper_sweep_cold/warm"),
    # the trace itself
    _layer("trace.unattributed_share", "ratio", "lower",
           "1 - sum of span self times / traced wall; at most 0.10 in process"),
    _layer("trace.overhead_x", "x", "lower", "traced wall_s / untraced wall_s"),
)

PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name,
             "why": w.why.format(jobs=f"{w.jobs:,}")}
            for w in WORKLOADS
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
