"""One entry per paper artifact: workload recipe + regime + published values.

``EXPERIMENTS`` maps experiment ids (``table3`` … ``table8``, ``fig3`` …
``fig6``) to :class:`ExperimentSpec` objects; :func:`run_experiment`
executes one at a chosen scale and returns measured grids plus the
paper-comparison report.  The figures share their data with the tables
(Fig 3/4 = Table 3, Fig 5 = Table 4, Fig 6 = Table 6), so they resolve to
the same runs rendered as bars.

The published values below are transcribed from the paper (average
response times in seconds; weighted values in node-second-weighted
seconds).  Absolute magnitudes are trace-specific and NOT a reproduction
target; the percentages against FCFS+EASY and the pairwise order of the
cells are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.job import Job
from repro.core.machine import Machine
from repro.experiments.engine import ExperimentEngine
from repro.experiments.fingerprint import fingerprint_jobs
from repro.experiments.runner import GridResult
from repro.experiments.tables import (
    agreement_score,
    format_bars,
    format_comparison,
    format_compute_times,
    format_grid,
)
from repro.workloads.transforms import (
    cap_nodes,
    renumber,
    take_prefix,
    with_exact_estimates,
)
from repro.workloads.recipes import (
    _fit_and_sample,
    ctc_exact_workload,
    ctc_workload,
    probabilistic_workload,
    randomized_workload_at,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.workload_store import WorkloadMemo
    from repro.scenarios import ScenarioSpec

# -- published numbers (Tables 3–6) --------------------------------------------------

PAPER_TABLE3_UNWEIGHTED = {
    "fcfs/list": 4.91e6, "fcfs/conservative": 6.70e5, "fcfs/easy": 3.95e5,
    "psrs/list": 1.59e5, "psrs/conservative": 1.02e5, "psrs/easy": 1.06e5,
    "smart-ffia/list": 1.57e5, "smart-ffia/conservative": 1.00e5, "smart-ffia/easy": 1.17e5,
    "smart-nfiw/list": 1.82e5, "smart-nfiw/conservative": 1.02e5, "smart-nfiw/easy": 1.11e5,
    "gg/list": 1.46e5,
}
PAPER_TABLE3_WEIGHTED = {
    "fcfs/list": 4.99e11, "fcfs/conservative": 1.83e11, "fcfs/easy": 1.43e11,
    "psrs/list": 3.82e11, "psrs/conservative": 1.70e11, "psrs/easy": 1.43e11,
    "smart-ffia/list": 3.57e11, "smart-ffia/conservative": 2.00e11, "smart-ffia/easy": 1.51e11,
    "smart-nfiw/list": 3.91e11, "smart-nfiw/conservative": 2.03e11, "smart-nfiw/easy": 1.49e11,
    "gg/list": 1.20e11,
}
PAPER_TABLE4_UNWEIGHTED = {
    "fcfs/list": 6.17e6, "fcfs/conservative": 1.06e6, "fcfs/easy": 1.03e6,
    "psrs/list": 2.86e5, "psrs/conservative": 1.71e5, "psrs/easy": 1.55e5,
    "smart-ffia/list": 2.67e5, "smart-ffia/conservative": 1.74e5, "smart-ffia/easy": 1.57e5,
    "smart-nfiw/list": 2.85e5, "smart-nfiw/conservative": 1.65e5, "smart-nfiw/easy": 1.64e5,
    "gg/list": 2.78e5,
}
PAPER_TABLE4_WEIGHTED = {
    "fcfs/list": 6.17e11, "fcfs/conservative": 3.03e11, "fcfs/easy": 2.96e11,
    "psrs/list": 5.10e11, "psrs/conservative": 3.05e11, "psrs/easy": 2.91e11,
    "smart-ffia/list": 4.84e11, "smart-ffia/conservative": 3.33e11, "smart-ffia/easy": 2.97e11,
    "smart-nfiw/list": 4.86e11, "smart-nfiw/conservative": 3.31e11, "smart-nfiw/easy": 3.03e11,
    "gg/list": 2.72e11,
}
PAPER_TABLE5_UNWEIGHTED = {
    "fcfs/list": 3.40e8, "fcfs/conservative": 1.72e8, "fcfs/easy": 1.73e8,
    "psrs/list": 1.66e8, "psrs/conservative": 1.44e8, "psrs/easy": 1.32e8,
    "smart-ffia/list": 1.57e8, "smart-ffia/conservative": 1.41e8, "smart-ffia/easy": 1.37e8,
    "smart-nfiw/list": 1.61e8, "smart-nfiw/conservative": 1.42e8, "smart-nfiw/easy": 1.39e8,
    "gg/list": 1.73e8,
}
PAPER_TABLE5_WEIGHTED = {
    "fcfs/list": 9.40e14, "fcfs/conservative": 6.66e14, "fcfs/easy": 6.64e14,
    "psrs/list": 8.66e14, "psrs/conservative": 6.61e14, "psrs/easy": 6.60e14,
    "smart-ffia/list": 8.15e14, "smart-ffia/conservative": 7.54e14, "smart-ffia/easy": 6.96e14,
    "smart-nfiw/list": 9.05e14, "smart-nfiw/conservative": 7.96e14, "smart-nfiw/easy": 7.09e14,
    "gg/list": 6.68e14,
}
PAPER_TABLE6_UNWEIGHTED = {
    "fcfs/list": 4.91e6, "fcfs/conservative": 4.05e5, "fcfs/easy": 3.93e5,
    "psrs/list": 1.05e5, "psrs/conservative": 6.35e4, "psrs/easy": 5.48e4,
    "smart-ffia/list": 9.07e4, "smart-ffia/conservative": 5.60e4, "smart-ffia/easy": 5.33e4,
    "smart-nfiw/list": 9.39e4, "smart-nfiw/conservative": 5.66e4, "smart-nfiw/easy": 5.34e4,
    "gg/list": 1.46e5,
}
PAPER_TABLE6_WEIGHTED = {
    "fcfs/list": 4.99e11, "fcfs/conservative": 1.14e11, "fcfs/easy": 9.82e10,
    "psrs/list": 3.91e11, "psrs/conservative": 1.15e11, "psrs/easy": 9.91e10,
    "smart-ffia/list": 3.03e11, "smart-ffia/conservative": 2.73e11, "smart-ffia/easy": 2.58e11,
    "smart-nfiw/list": 3.33e11, "smart-nfiw/conservative": 2.92e11, "smart-nfiw/easy": 2.68e11,
    "gg/list": 1.20e11,
}

#: Tables 7/8: computation time pct vs FCFS+EASY.  The paper merges the two
#: SMART variants into one row; we replicate its value for both variants.
PAPER_TABLE7 = {
    "unweighted": {
        "fcfs/list": -81.6, "psrs/list": -76.7, "smart-ffia/list": -75.6,
        "smart-nfiw/list": -75.6, "gg/list": -58.4,
        "psrs/easy": -33.7, "smart-ffia/easy": -32.7, "smart-nfiw/easy": -32.7,
    },
    "weighted": {
        "fcfs/list": -80.6, "psrs/list": +30.6, "smart-ffia/list": -13.7,
        "smart-nfiw/list": -13.7, "gg/list": -57.2,
        "psrs/easy": -39.4, "smart-ffia/easy": -34.3, "smart-nfiw/easy": -34.3,
    },
}
PAPER_TABLE8 = {
    "unweighted": {
        "fcfs/list": -92.1, "psrs/list": -88.5, "smart-ffia/list": -87.1,
        "smart-nfiw/list": -87.1, "gg/list": -72.3,
        "psrs/easy": -79.6, "smart-ffia/easy": -80.1, "smart-nfiw/easy": -80.1,
    },
    "weighted": {
        "fcfs/list": -91.6, "psrs/list": -27.2, "smart-ffia/list": -50.5,
        "smart-nfiw/list": -50.5, "gg/list": -69.2,
        "psrs/easy": -57.4, "smart-ffia/easy": -72.7, "smart-nfiw/easy": -72.7,
    },
}

#: Table 1 job counts.
PAPER_TABLE1 = {"ctc": 79_164, "probabilistic": 50_000, "randomized": 50_000}


# -- experiment specs -------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ExperimentSpec:
    """One paper artifact: how to regenerate it and what the paper printed."""

    experiment_id: str
    description: str
    workload: Callable[[int, int], list[Job]]
    #: regime -> paper cell values (absolute objective, Tables 3–6) or
    #: compute-time percentages (Tables 7–8).
    paper: dict[str, dict[str, float]]
    #: job count used by the paper.
    paper_scale: int
    #: default scale for laptop runs.
    default_scale: int
    kind: str = "objective"     # "objective" | "compute" | "figure"
    renders_figure: str | None = None


@dataclass(slots=True)
class ExperimentResult:
    """Measured grids for both regimes plus rendered reports."""

    spec: ExperimentSpec
    grids: dict[str, GridResult]
    reports: dict[str, str]
    agreement: dict[str, float]
    #: Deterministic journal run id per regime (empty for journal-less
    #: runs).
    run_ids: dict[str, str] = field(default_factory=dict)


EXPERIMENTS: dict[str, ExperimentSpec] = {
    "table3": ExperimentSpec(
        experiment_id="table3",
        description="Average response time for the CTC workload (Figs 3 and 4)",
        workload=ctc_workload,
        paper={"unweighted": PAPER_TABLE3_UNWEIGHTED, "weighted": PAPER_TABLE3_WEIGHTED},
        paper_scale=PAPER_TABLE1["ctc"],
        default_scale=3000,
    ),
    "table4": ExperimentSpec(
        experiment_id="table4",
        description="Average response time for the probability distributed workload (Fig 5)",
        workload=probabilistic_workload,
        paper={"unweighted": PAPER_TABLE4_UNWEIGHTED, "weighted": PAPER_TABLE4_WEIGHTED},
        paper_scale=PAPER_TABLE1["probabilistic"],
        default_scale=3000,
    ),
    "table5": ExperimentSpec(
        experiment_id="table5",
        description="Average response time for the randomized workload",
        workload=randomized_workload_at,
        paper={"unweighted": PAPER_TABLE5_UNWEIGHTED, "weighted": PAPER_TABLE5_WEIGHTED},
        paper_scale=PAPER_TABLE1["randomized"],
        default_scale=3000,
    ),
    "table6": ExperimentSpec(
        experiment_id="table6",
        description="CTC workload with knowledge of the exact execution time (Fig 6)",
        workload=ctc_exact_workload,
        paper={"unweighted": PAPER_TABLE6_UNWEIGHTED, "weighted": PAPER_TABLE6_WEIGHTED},
        paper_scale=PAPER_TABLE1["ctc"],
        default_scale=3000,
    ),
    "table7": ExperimentSpec(
        experiment_id="table7",
        description="Computation time for the CTC workload",
        workload=ctc_workload,
        paper=PAPER_TABLE7,
        paper_scale=PAPER_TABLE1["ctc"],
        default_scale=3000,
        kind="compute",
    ),
    "table8": ExperimentSpec(
        experiment_id="table8",
        description="Computation time for the probability distributed workload",
        workload=probabilistic_workload,
        paper=PAPER_TABLE8,
        paper_scale=PAPER_TABLE1["probabilistic"],
        default_scale=3000,
        kind="compute",
    ),
}
# The figures render the same runs as their tables.
EXPERIMENTS["fig3"] = ExperimentSpec(
    experiment_id="fig3",
    description="Figure 3: bars of Table 3, unweighted",
    workload=ctc_workload,
    paper={"unweighted": PAPER_TABLE3_UNWEIGHTED},
    paper_scale=PAPER_TABLE1["ctc"],
    default_scale=3000,
    kind="figure",
    renders_figure="unweighted",
)
EXPERIMENTS["fig4"] = ExperimentSpec(
    experiment_id="fig4",
    description="Figure 4: bars of Table 3, weighted",
    workload=ctc_workload,
    paper={"weighted": PAPER_TABLE3_WEIGHTED},
    paper_scale=PAPER_TABLE1["ctc"],
    default_scale=3000,
    kind="figure",
    renders_figure="weighted",
)
EXPERIMENTS["fig5"] = ExperimentSpec(
    experiment_id="fig5",
    description="Figure 5: bars of Table 4, unweighted",
    workload=probabilistic_workload,
    paper={"unweighted": PAPER_TABLE4_UNWEIGHTED},
    paper_scale=PAPER_TABLE1["probabilistic"],
    default_scale=3000,
    kind="figure",
    renders_figure="unweighted",
)
EXPERIMENTS["fig6"] = ExperimentSpec(
    experiment_id="fig6",
    description="Figure 6: bars of Table 6 (exact runtimes), unweighted",
    workload=ctc_exact_workload,
    paper={"unweighted": PAPER_TABLE6_UNWEIGHTED},
    paper_scale=PAPER_TABLE1["ctc"],
    default_scale=3000,
    kind="figure",
    renders_figure="unweighted",
)


def run_experiment(
    experiment_id: str,
    *,
    scale: int | None = None,
    seed: int = 42,
    regimes: Sequence[str] | None = None,
    progress: Callable[[str], None] | None = None,
    source_trace: Sequence[Job] | None = None,
    scenario: "ScenarioSpec | None" = None,
    engine: ExperimentEngine | None = None,
) -> ExperimentResult:
    """Regenerate one paper artifact at the given scale.

    ``scale=None`` uses the laptop default; pass ``spec.paper_scale`` for a
    full-size run (hours for the conservative-backfilling cells in pure
    Python — see DESIGN.md).

    ``source_trace`` replaces the synthetic CTC stand-in with a real trace
    (e.g. the genuine CTC SP2 trace read via
    :func:`repro.workloads.swf.read_swf`): CTC-based experiments take a
    ``scale``-job prefix of it directly; the probabilistic experiments fit
    their model on it; the randomized experiment ignores it (Table 2 is
    trace-free by construction).

    ``engine`` is the :class:`~repro.experiments.engine.ExperimentEngine`
    every regime runs on — workers, result cache, progress events,
    journal directory, simulation and execution backends are all its
    constructor arguments; ``None`` builds the default one (serial, no
    cache).  Pass one engine to several calls to share its workload
    store and its workload memo (each recipe is generated once per
    engine, and read back from ``<cache>/workloads`` by later engines on
    the same cache).  Results, caches and run ids are bit-identical across
    simulation and execution backends.

    Rerunning an interrupted call with the same arguments continues its
    journals and simulates only the cells the cache lacks.

    ``scenario`` runs every regime under a compiled
    :class:`~repro.scenarios.spec.ScenarioSpec` (failures, cancellations,
    load surges, …): its canonical digest joins every cell fingerprint
    and each regime's run id, so scenario runs cache and journal
    apart from the healthy baseline.
    """
    spec = EXPERIMENTS[experiment_id]
    n = spec.default_scale if scale is None else scale
    if engine is None:
        engine = ExperimentEngine()
    jobs = _experiment_jobs(spec, n, seed, source_trace, engine.workload_memo)
    wanted = list(regimes) if regimes is not None else list(spec.paper.keys())

    grids: dict[str, GridResult] = {}
    reports: dict[str, str] = {}
    agreement: dict[str, float] = {}
    run_ids: dict[str, str] = {}
    for regime in wanted:
        if progress is not None:
            progress(f"{experiment_id}: running {regime} grid over {len(jobs)} jobs")
        grid = engine.run(
            jobs,
            workload_name=spec.description,
            total_nodes=Machine.PAPER_BATCH_NODES,
            weighted=(regime == "weighted"),
            scenario=scenario,
        )
        if engine.stats.run_id is not None:
            run_ids[regime] = engine.stats.run_id
        grids[regime] = grid
        if spec.kind == "compute":
            reports[regime] = format_compute_times(grid)
            paper_pcts = spec.paper[regime]
            measured_pcts = {k: grid.compute_pct(k) for k in paper_pcts if k in grid.cells}
            agreement[regime] = _pct_agreement(paper_pcts, measured_pcts)
        elif spec.kind == "figure":
            reports[regime] = format_bars(grid)
            agreement[regime] = agreement_score(grid, spec.paper[regime])
        else:
            reports[regime] = (
                format_grid(grid)
                + "\n\n"
                + format_comparison(grid, spec.paper[regime])
            )
            agreement[regime] = agreement_score(grid, spec.paper[regime])
    return ExperimentResult(
        spec=spec, grids=grids, reports=reports, agreement=agreement, run_ids=run_ids
    )


#: The recipes whose generated streams the workload memo may keep: their
#: module's source is part of every memo key (``GENERATOR_MODULES``).
_MEMOISED_RECIPES = (
    ctc_workload, probabilistic_workload, randomized_workload_at, ctc_exact_workload,
)


def _experiment_jobs(
    spec: ExperimentSpec,
    scale: int,
    seed: int,
    source_trace: Sequence[Job] | None,
    memo: "WorkloadMemo | None" = None,
) -> list[Job]:
    """Build an experiment's workload, honouring a real-trace override.

    With a ``memo``, a paper recipe's generated stream is looked up under
    its memo key first and filed there after a build.  Prefixes of a real
    trace are cut afresh every time: they need no generator, and they
    carry the trace's ``meta``.
    """
    recipe = spec.workload
    trace_digest = ""
    build = partial(recipe, scale, seed)
    if source_trace is not None and recipe is not randomized_workload_at:
        # (the randomized workload is trace-free by design)
        prefix = renumber(
            cap_nodes(take_prefix(source_trace, scale), Machine.PAPER_BATCH_NODES)
        )
        if recipe is ctc_workload:
            return prefix
        if recipe is ctc_exact_workload:
            return with_exact_estimates(prefix)
        if recipe is probabilistic_workload:
            trace_digest = fingerprint_jobs(prefix)
            build = partial(_fit_and_sample, prefix, scale, seed)
    if memo is None or recipe not in _MEMOISED_RECIPES:
        return build()
    name = f"{recipe.__module__}.{recipe.__qualname__}"
    return memo.fetch(memo.key(name, scale, seed, trace_digest), build)


def _pct_agreement(paper: dict[str, float], measured: dict[str, float]) -> float:
    """Sign agreement of compute-time percentages (cheaper/slower than ref)."""
    keys = [k for k in paper if k in measured]
    if not keys:
        return 1.0
    hits = sum(1 for k in keys if (paper[k] < 0) == (measured[k] < 0))
    return hits / len(keys)
