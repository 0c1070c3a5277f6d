"""Command line: ``repro-experiments [ids...] [--scale N] [--seed S]``.

Regenerates paper artifacts from the shell::

    repro-experiments table3                 # laptop-scale Table 3
    repro-experiments fig3 fig4 --scale 2000
    repro-experiments all --scale 1000       # everything, small
    repro-experiments table3 --full          # paper-scale job count (slow!)
    repro-experiments all --workers 8        # parallel cell fan-out

Reports print to stdout; ``--out DIR`` additionally writes one text file
per experiment and regime.

Grid cells run through the parallel experiment engine: ``--workers N``
fans independent cells out over N processes, and results are cached
content-addressed under ``--cache-dir`` (default ``.repro-cache``), so
re-runs and interrupted runs only simulate what is missing.  ``--no-cache``
forces fresh simulations; ``--events FILE`` appends the engine's
structured progress events as JSON lines.

Every cached run is journaled under ``<cache>/runs/<run_id>.jsonl``
(crash-tolerant run lifecycle)::

    repro-experiments --list-runs            # journals + cache prune stats
    repro-experiments table3 --resume RUN_ID # re-dispatch only the remainder
    repro-experiments --verify-run RUN_ID    # audit journal vs cache
    repro-experiments --verify-run all

A run killed by SIGINT/SIGTERM exits cleanly (status 130) after printing
the ``--resume`` handle.

Parallelism never changes results: grids, per-cell fingerprints and
run ids are bit-identical whether cells ran serially or in the local
pool, even one whose workers crashed halfway through (lease expiry,
retries and the pool -> serial fallback guarantee completion).

Every artifact runs on the paper's 256-node batch partition
(``Machine.PAPER_BATCH_NODES``).  A scenario run (see
:mod:`repro.scenarios`) reads its :class:`~repro.scenarios.spec.ScenarioSpec`
from a JSON file, the one way to give a scenario::

    repro-experiments table3 --scenario spec.json

with, for example, ``{"components": [{"kind": "failures", "mtbf": 40000.0,
"recovery": "resubmit"}], "seed": 7}`` in ``spec.json``.  The spec's
canonical digest enters every cell fingerprint and run id, so scenario
runs cache, journal and ``--resume`` apart from the healthy baseline.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING
from pathlib import Path

from repro.experiments.paper import EXPERIMENTS, run_experiment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.job import Job
    from repro.experiments.engine import ResultCache
    from repro.experiments.journal import RunSummary
    from repro.scenarios import ScenarioSpec


def _journal_root(args: argparse.Namespace) -> Path:
    if args.journal_dir is not None:
        return args.journal_dir
    return args.cache_dir / "runs"


def _evicted_cells(summary: "RunSummary", cache: "ResultCache") -> int:
    """Completed cells of a journaled run whose cache entries are gone.

    A CACHE_VERSION bump (or a prune after one) evicts every entry the
    journal's fingerprints point at; ``--resume`` of such a run will
    re-simulate those cells, so ``--list-runs`` says so out loud.
    """
    from repro.experiments.journal import JournalError, read_journal

    if summary.path is None or summary.status == "corrupt":
        return 0
    try:
        replay = read_journal(summary.path)
    except JournalError:
        return 0
    missing = 0
    for key in replay.completed:
        fingerprint = replay.cells[key].fingerprint
        if fingerprint and cache.status(fingerprint) != "hit":
            missing += 1
    return missing


def _cmd_list_runs(args: argparse.Namespace) -> int:
    from repro.experiments.engine import ResultCache
    from repro.experiments.journal import list_runs

    summaries = list_runs(_journal_root(args))
    if not summaries:
        print(f"no runs journaled under {_journal_root(args)}")
    for summary in summaries:
        print(summary.describe())
    if not args.no_cache and args.cache_dir.is_dir():
        cache = ResultCache(args.cache_dir)
        for summary in summaries:
            evicted = _evicted_cells(summary, cache)
            if evicted:
                print(
                    f"note: run {summary.run_id} references {evicted} "
                    f"completed cell(s) whose cache entries were evicted "
                    f"(version skew or prune); --resume will re-simulate them"
                )
        # Listing runs is the natural moment to sweep the cache the
        # journals point into: stale entries out, corruption quarantined.
        print(cache.prune().describe())
    return 0


def _cmd_verify_run(args: argparse.Namespace) -> int:
    from repro.experiments.engine import ResultCache
    from repro.experiments.journal import JournalError, list_runs, verify_run

    root = _journal_root(args)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    if args.verify_run == "all":
        run_ids = [s.run_id for s in list_runs(root) if s.status != "corrupt"]
        if not run_ids:
            print(f"no runs journaled under {root}")
            return 0
    else:
        run_ids = [args.verify_run]
    failures = 0
    for run_id in run_ids:
        try:
            audit = verify_run(run_id, journal_dir=root, cache=cache)
        except JournalError as exc:
            print(f"run {run_id}: UNREADABLE ({exc})", file=sys.stderr)
            failures += 1
            continue
        print(audit.describe())
        if not audit.ok:
            failures += 1
    return 1 if failures else 0


def _cmd_profile_cell(
    args: argparse.Namespace,
    source_trace: "list[Job] | None",
    scenario: "ScenarioSpec | None",
) -> int:
    """Re-simulate one journaled cell with per-phase instrumentation.

    Locates the cell by (a prefix of) its cache fingerprint with the same
    journal walk ``--verify-run`` performs, rebuilds the run's workload
    from its manifest recipe the way the run built it (from
    ``source_trace`` when the run had ``--swf``, through the engine's
    workload memo), takes ``scenario`` (the ``--scenario`` spec) when the
    cell ran under one, proves the reconstruction by recomputing the
    cell fingerprint, then re-runs that single cell with
    ``SimulationConfig(profile_phases=True)`` and prints the
    ``phase_seconds`` breakdown — a regression is attributable to a phase
    without reaching for a profiler.
    """
    from repro.core.machine import Machine
    from repro.core.simulator import SimulationConfig, Simulator
    from repro.experiments.engine import ExperimentEngine
    from repro.experiments.journal import (
        JournalError,
        journal_path,
        list_runs,
        read_journal,
    )
    from repro.experiments.paper import _experiment_jobs
    from repro.schedulers.registry import SchedulerConfig, build_scheduler

    target = args.profile_cell
    root = _journal_root(args)
    matches: list[tuple[str, str, str, dict]] = []
    seen: set[str] = set()
    for summary in list_runs(root):
        if summary.status == "corrupt":
            continue
        try:
            replay = read_journal(journal_path(root, summary.run_id))
        except JournalError:
            continue
        for key, cell in replay.cells.items():
            fingerprint = cell.fingerprint
            if not fingerprint or not fingerprint.startswith(target):
                continue
            if fingerprint not in seen:
                seen.add(fingerprint)
                matches.append((summary.run_id, key, fingerprint, replay.manifest))
    if not matches:
        print(
            f"no journaled cell under {root} has a fingerprint starting "
            f"with {target!r}",
            file=sys.stderr,
        )
        return 1
    if len(matches) > 1:
        print(
            f"fingerprint prefix {target!r} is ambiguous "
            f"({len(matches)} cells):",
            file=sys.stderr,
        )
        for run_id, key, fingerprint, _manifest in matches:
            print(f"  {fingerprint}  {key} (run {run_id})", file=sys.stderr)
        return 1
    run_id, key, fingerprint, manifest = matches[0]

    name = str(manifest.get("workload_name", "workload"))
    spec = next(
        (s for s in EXPERIMENTS.values() if s.description == name), None
    )
    if spec is None:
        print(
            f"cell {key} of run {run_id} used workload {name!r}, which is "
            "not a registered experiment recipe — cannot rebuild its jobs",
            file=sys.stderr,
        )
        return 1
    scale = args.scale if args.scale is not None else int(manifest.get("n_jobs", 0))

    # Recompile the scenario (if any) through the engine's own
    # normalisation, then prove the whole reconstruction by recomputing
    # the cell fingerprint.
    total_nodes = int(manifest["total_nodes"])
    weighted = bool(manifest["weighted"])
    recompute_threshold = float(manifest["recompute_threshold"])
    row, _, column = key.partition("/")
    config = SchedulerConfig(row=row, column=column)
    engine = ExperimentEngine(cache=None if args.no_cache else args.cache_dir)
    request = engine._prepare(
        _experiment_jobs(
            spec, scale, args.seed, source_trace, engine.workload_memo
        ),
        total_nodes=total_nodes,
        weighted=weighted,
        configs=[config],
        recompute_threshold=recompute_threshold,
        scenario=scenario,
    )
    jobs = request.jobs
    expected = request.fingerprint(config)
    if expected != fingerprint:
        print(
            f"reconstructed inputs do not reproduce fingerprint "
            f"{fingerprint}\n(got {expected}).  Re-run with the original "
            "--scale/--seed/--swf/--scenario of run "
            f"{run_id} (workload {name!r}, {manifest.get('n_jobs')} jobs"
            f"{', scenario ' + manifest['scenario'][:12] if manifest.get('scenario') else ''}).",
            file=sys.stderr,
        )
        return 1

    simulator = Simulator(
        Machine(total_nodes),
        build_scheduler(
            config, total_nodes, weighted=weighted,
            recompute_threshold=recompute_threshold,
        ),
        SimulationConfig(
            backend=args.backend,
            cancel_over_limit=request.cancel_over_limit,
            profile_phases=True,
        ),
    )
    result = simulator.run(jobs, scenario=request.scenario)
    print(f"cell {key} of run {run_id}")
    print(f"  fingerprint {fingerprint}")
    print(
        f"  workload {name!r}, {len(jobs)} jobs, {total_nodes} nodes, "
        f"{'weighted' if weighted else 'unweighted'}"
    )
    print(
        f"  decision points {result.decision_points}, "
        f"backend {simulator.backend}"
    )
    print("phase_seconds:")
    for phase in ("total", "decide", "events", "commit", "other"):
        if phase in result.phase_seconds:
            print(f"  {phase:<10}{result.phase_seconds[phase] * 1e3:10.3f} ms")
    return 0


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """Where and how cells execute, and where results and journals land."""
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for parallel grid-cell fan-out (default 1)",
    )
    parser.add_argument(
        "--backend",
        choices=["auto", "python", "numpy"],
        default=None,
        help="queue-walk backend (default: $REPRO_BACKEND, else auto — "
        "numpy, the compiled walks; python runs the Python walks); results "
        "are bit-identical either way",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=Path(".repro-cache"),
        help="content-addressed result cache directory (default .repro-cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache: simulate every cell fresh",
    )
    parser.add_argument(
        "--events",
        type=Path,
        default=None,
        help="append engine progress events to this file as JSON lines",
    )
    parser.add_argument(
        "--journal-dir",
        type=Path,
        default=None,
        help="run-journal directory (default: <cache-dir>/runs)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of Krallmann et al. (IPPS'99).",
    )
    from repro.experiments.extensions import EXTENSIONS

    parser.add_argument(
        "ids",
        nargs="*",
        help="experiment ids "
        f"({', '.join(sorted(EXPERIMENTS))}; extensions: "
        f"{', '.join(sorted(EXTENSIONS))}), 'all' (paper artifacts) or "
        "'ext-all' (extensions)",
    )
    parser.add_argument("--scale", type=int, default=None, help="jobs per workload")
    parser.add_argument(
        "--full",
        action="store_true",
        help=(
            "use the paper's job counts (a 79,164-job conservative cell takes "
            "about 261 s on the compiled walk)"
        ),
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", type=Path, default=None, help="directory for report files")
    parser.add_argument(
        "--swf",
        type=Path,
        default=None,
        help="real trace (Standard Workload Format) replacing the synthetic "
        "CTC stand-in — e.g. the genuine CTC SP2 trace from the Parallel "
        "Workloads Archive",
    )
    _add_engine_arguments(parser)
    parser.add_argument(
        "--resume",
        metavar="RUN_ID",
        default=None,
        help="resume the journaled run with this id: completed cells are "
        "skipped via the cache, only the remainder is re-dispatched",
    )
    parser.add_argument(
        "--scenario",
        type=Path,
        default=None,
        metavar="SPEC.json",
        help="run every cell under this JSON scenario spec (see "
        "repro.scenarios; the spec's canonical digest enters every cell "
        "fingerprint and run id)",
    )
    parser.add_argument(
        "--list-runs",
        action="store_true",
        help="list journaled runs (and prune the result cache), then exit",
    )
    parser.add_argument(
        "--verify-run",
        metavar="RUN_ID",
        default=None,
        help="audit a journaled run against the cache ('all' audits every "
        "journal), then exit",
    )
    parser.add_argument(
        "--profile-cell",
        metavar="FINGERPRINT",
        default=None,
        help="re-simulate one journaled cell (by cache-fingerprint prefix) "
        "with per-phase instrumentation and print its phase_seconds "
        "breakdown, then exit (pass the run's --scale/--seed/--swf/--scenario "
        "if they differed from the defaults)",
    )
    return parser


def _run_experiments(
    args: argparse.Namespace,
    ids: list[str],
    scenario: "ScenarioSpec | None",
    source_trace: "list[Job] | None",
) -> int:
    """Run the paper artifacts on the one engine of this invocation (every
    artifact shares its cache, journal directory, workload store, worker
    pool and ``--events`` log handle)."""
    from repro.analysis.persistence import event_line
    from repro.experiments.engine import ExperimentEngine
    from repro.experiments.journal import (
        ManifestMismatchError,
        RunInterrupted,
        UnknownRunError,
    )

    def on_event(event) -> None:
        if event.kind in ("cell-finished", "cache-hit"):
            wall = f" in {event.wall_time:.2f}s" if event.wall_time is not None else ""
            hit = " (cache hit)" if event.cached else ""
            print(
                f"  {event.key}: objective {event.objective:.4G}{wall}{hit}",
                file=sys.stderr,
            )
        if events_log is not None:
            # Flushed per event: a killed run's log ends at its last event.
            events_log.write(event_line(event))
            events_log.flush()

    engine = ExperimentEngine(
        workers=args.workers,
        cache=None if args.no_cache else args.cache_dir,
        on_event=on_event,
        journal_dir=args.journal_dir,
        backend=args.backend,
    )
    # One handle for the whole invocation (appending: resumes accumulate).
    events_log = (
        open(args.events, "a", encoding="utf-8") if args.events is not None else None
    )
    try:
        for experiment_id in ids:
            spec = EXPERIMENTS[experiment_id]
            scale = spec.paper_scale if args.full else args.scale
            try:
                result = run_experiment(
                    experiment_id,
                    scale=scale,
                    seed=args.seed,
                    progress=lambda msg: print(f"[{experiment_id}] {msg}", file=sys.stderr),
                    source_trace=source_trace,
                    resume_run_id=args.resume,
                    scenario=scenario,
                    engine=engine,
                )
            except RunInterrupted as exc:
                print(f"\ninterrupted by {exc.signal_name}: {exc}", file=sys.stderr)
                if exc.run_id:
                    print(
                        f"resume with: repro-experiments {experiment_id} --resume "
                        f"{exc.run_id}",
                        file=sys.stderr,
                    )
                return 130
            except (ManifestMismatchError, UnknownRunError) as exc:
                print(f"cannot resume {args.resume}: {exc}", file=sys.stderr)
                return 2
            for regime, run_id in result.run_ids.items():
                print(f"[{experiment_id}] {regime} run id: {run_id}", file=sys.stderr)
            for regime, report in result.reports.items():
                banner = f"=== {experiment_id} ({regime}) — {spec.description} ==="
                print(banner)
                print(report)
                print(f"rank agreement with the paper: {result.agreement[regime]:.2f}")
                print()
                if args.out is not None:
                    path = args.out / f"{experiment_id}_{regime}.txt"
                    path.write_text(banner + "\n" + report + "\n")
    finally:
        engine.close()
        if events_log is not None:
            events_log.close()
    return 0


def _read_trace(args: argparse.Namespace) -> "list[Job] | None":
    """The ``--swf`` trace, or ``None`` when the run is synthetic."""
    if args.swf is None:
        return None
    from repro.workloads.swf import read_swf

    source_trace = read_swf(args.swf)
    print(f"loaded {len(source_trace)} jobs from {args.swf}", file=sys.stderr)
    return source_trace


def _read_scenario(args: argparse.Namespace) -> "ScenarioSpec | None":
    """The ``--scenario`` spec, or ``None`` — the healthy baseline — when
    no file was given or its spec has no components."""
    if args.scenario is None:
        return None
    from repro.scenarios import ScenarioSpec

    spec = ScenarioSpec.from_json(args.scenario.read_text(encoding="utf-8"))
    return spec if spec.components else None


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        scenario = _read_scenario(args)
    except (OSError, ValueError) as exc:
        parser.error(f"bad scenario: {exc}")

    if args.list_runs:
        return _cmd_list_runs(args)
    if args.verify_run is not None:
        return _cmd_verify_run(args)
    if args.profile_cell is not None:
        return _cmd_profile_cell(args, _read_trace(args), scenario)
    if not args.ids:
        parser.error(
            "experiment ids are required "
            "(or --list-runs/--verify-run/--profile-cell)"
        )
    if args.resume is not None and args.no_cache:
        parser.error("--resume needs the cache; drop --no-cache")
    for flag, value in (("--scale", args.scale), ("--workers", args.workers)):
        if value is not None and value < 1:
            parser.error(f"{flag} must be >= 1")

    source_trace = _read_trace(args)

    from repro.experiments.extensions import EXTENSIONS, run_extension

    # "all" and "ext-all" each expand on their own; an id named twice runs once.
    expansions = {"all": sorted(EXPERIMENTS), "ext-all": sorted(EXTENSIONS)}
    ids: list[str] = []
    for typed in args.ids:
        ids.extend(i for i in expansions.get(typed, [typed]) if i not in ids)
    unknown = [i for i in ids if i not in EXPERIMENTS and i not in EXTENSIONS]
    if unknown:
        parser.error(f"unknown experiment ids: {', '.join(unknown)}")

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    for experiment_id in (i for i in ids if i in EXTENSIONS):
        result = run_extension(experiment_id, scale=args.scale, seed=args.seed)
        banner = f"=== {experiment_id} — {EXTENSIONS[experiment_id].description} ==="
        print(banner)
        print(result.report)
        print(f"claim holds: {result.claim_holds}")
        print()
        if args.out is not None:
            (args.out / f"{experiment_id}.txt").write_text(
                banner + "\n" + result.report + f"\nclaim holds: {result.claim_holds}\n"
            )

    paper_ids = [i for i in ids if i in EXPERIMENTS]
    if not paper_ids:
        return 0
    return _run_experiments(args, paper_ids, scenario, source_trace)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
