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

A fleet of remote workers turns the same grid into a distributed run
(trusted networks only — the wire protocol ships pickles)::

    repro-experiments --serve-worker 9100            # on each worker host
    repro-experiments all --backend-exec remote \\
        --connect hostA:9100 --connect hostB:9100 \\
        --remote-cache hostA:9100

``--remote-cache`` also accepts an S3-compatible object store
(``s3://HOST:PORT/BUCKET[/PREFIX]``, path-style, MinIO-friendly) as the
durable fleet cache; entries are checksummed, validated before trust,
and poisoned objects are quarantined under a ``quarantine/`` prefix::

    repro-experiments all --workers 8 \\
        --remote-cache s3://minio.internal:9000/repro-cache/grids

Execution backends never change results: grids, per-cell fingerprints
and run ids are bit-identical whether cells ran serially, in a local
pool, or on a remote fleet that crashed halfway through (lease expiry,
retries and the remote -> local pool -> serial degradation ladder
guarantee completion).

Scenario runs (see :mod:`repro.scenarios`) are driven either by a JSON
spec file or by convenience flags that translate into spec components::

    repro-experiments table3 --scenario spec.json
    repro-experiments table3 --failure-mtbf 40000 --recovery resubmit
    repro-experiments table3 --cancellation-rate 0.05 --scenario-seed 7

Both styles meet in one :class:`~repro.scenarios.spec.ScenarioSpec`, so
the canonical scenario digest — and with it caching, journaling and
``--resume`` — is identical no matter how the scenario was spelled.
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


def scenario_from_args(args: argparse.Namespace) -> "ScenarioSpec | None":
    """Build the run's :class:`~repro.scenarios.spec.ScenarioSpec`.

    ``--scenario FILE`` loads a JSON spec; ``--cancellation-rate``,
    ``--failure-mtbf``/``--failure-mttr``/``--recovery`` translate into
    the equivalent components and are appended to it (component order
    never matters).  ``--scenario-seed`` overrides the spec seed.
    Returns ``None`` — the healthy baseline — when nothing was asked for.
    """
    from repro.scenarios import CancellationModel, FailureModel, ScenarioSpec

    spec = ScenarioSpec()
    if args.scenario is not None:
        spec = ScenarioSpec.from_json(args.scenario.read_text(encoding="utf-8"))
    extras: list = []
    if args.cancellation_rate is not None:
        extras.append(CancellationModel(fraction=args.cancellation_rate))
    if args.failure_mtbf is not None:
        extras.append(
            FailureModel(
                mtbf=args.failure_mtbf,
                mttr=3600.0 if args.failure_mttr is None else args.failure_mttr,
                recovery=args.recovery,
                total_nodes=args.nodes,
            )
        )
    if extras:
        spec = spec.with_components(*extras)
    if not spec.components:
        return None
    if args.scenario_seed is not None:
        from dataclasses import replace

        spec = replace(spec, seed=args.scenario_seed)
    return spec


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


def _cmd_profile_cell(args: argparse.Namespace) -> int:
    """Re-simulate one journaled cell with per-phase instrumentation.

    Locates the cell by (a prefix of) its cache fingerprint with the same
    journal walk ``--verify-run`` performs, rebuilds the run's workload
    from its manifest recipe (and the scenario from the CLI flags, when
    the cell ran under one), proves the reconstruction by recomputing the
    cell fingerprint, then re-runs that single cell with
    ``SimulationConfig(profile_phases=True)`` and prints the
    ``phase_seconds`` breakdown plus the coalescing counters — a
    regression is attributable to a phase without reaching for a
    profiler.
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
    request = ExperimentEngine()._prepare(
        spec.workload(scale, args.seed),
        total_nodes=total_nodes,
        weighted=weighted,
        configs=[config],
        recompute_threshold=recompute_threshold,
        scenario=scenario_from_args(args),
    )
    jobs = request.jobs
    expected = request.fingerprint(config)
    if expected != fingerprint:
        print(
            f"reconstructed inputs do not reproduce fingerprint "
            f"{fingerprint}\n(got {expected}).  Re-run with the original "
            "--scale/--seed and scenario flags of run "
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
    for phase in ("total", "decide", "events", "commit", "coalesce", "other"):
        if phase in result.phase_seconds:
            print(f"  {phase:<10}{result.phase_seconds[phase] * 1e3:10.3f} ms")
    if result.coalesced:
        print("coalesced:")
        for counter, value in sorted(result.coalesced.items()):
            print(f"  {counter:<22}{value}")
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
        help="simulation kernel backend (default: $REPRO_BACKEND, else auto "
        "— numpy when importable); results are bit-identical either way",
    )
    parser.add_argument(
        "--backend-exec",
        choices=["local", "remote"],
        default=None,
        help="where grid cells execute: local (one process pool, default) "
        "or remote (TCP workers from --connect); results are "
        "bit-identical across execution backends",
    )
    parser.add_argument(
        "--connect",
        action="append",
        default=None,
        metavar="HOST:PORT",
        help="remote worker address for --backend-exec remote (repeat "
        "for a fleet); start workers with --serve-worker",
    )
    parser.add_argument(
        "--serve-worker",
        metavar="[HOST:]PORT",
        default=None,
        help="run a remote worker serving cells (and the shared cache, "
        "unless --no-cache) on this address until killed, then exit; "
        "trusted networks only — the protocol ships pickles",
    )
    parser.add_argument(
        "--remote-cache",
        metavar="HOST:PORT|s3://…",
        default=None,
        help="shared fleet result cache: HOST:PORT reads through a "
        "worker's cache, s3://HOST:PORT/BUCKET[/PREFIX] (or s3://BUCKET "
        "with REPRO_S3_ENDPOINT set) a durable S3-compatible object "
        "store; every entry is validated before trust, poisoned objects "
        "are quarantined, and an unreachable store trips a circuit "
        "breaker that degrades the run to local-only caching",
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


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    """The scenario every cell runs under (spec file or shorthand flags)."""
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
        "--cancellation-rate",
        type=float,
        default=None,
        metavar="FRACTION",
        help="scenario shorthand: cancel this fraction of jobs "
        "(a CancellationModel component)",
    )
    parser.add_argument(
        "--failure-mtbf",
        type=float,
        default=None,
        metavar="SECONDS",
        help="scenario shorthand: inject node failures with this "
        "mean-time-between-failures (a FailureModel component)",
    )
    parser.add_argument(
        "--failure-mttr",
        type=float,
        default=None,
        metavar="SECONDS",
        help="mean repair time for --failure-mtbf (default 3600)",
    )
    parser.add_argument(
        "--recovery",
        default=None,
        metavar="SPEC",
        help="recovery policy for injected failures: abandon, resubmit, "
        "or checkpoint:interval=T,overhead=O (needs --failure-mtbf)",
    )
    parser.add_argument(
        "--scenario-seed",
        type=int,
        default=None,
        help="override the scenario spec's seed (component sub-seeds "
        "derive from it)",
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
        help="use the paper's job counts (very slow for conservative cells)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--nodes", type=int, default=256)
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
    _add_scenario_arguments(parser)
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
        "breakdown, then exit (pass the run's --scale/--seed/scenario "
        "flags if they differed from the defaults)",
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
        elif event.kind == "cache-degraded":
            print(f"  [cache degraded] {event.detail}", file=sys.stderr)
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
        execution_backend=args.backend_exec,
        connect=tuple(args.connect or ()),
        remote_cache=args.remote_cache,
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
                    total_nodes=args.nodes,
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


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.serve_worker is not None:
        from repro.experiments.backends.worker import serve_worker

        cache_dir = None if args.no_cache else args.cache_dir
        try:
            serve_worker(args.serve_worker, cache_dir=cache_dir)
        except KeyboardInterrupt:
            return 130
        return 0
    if args.list_runs:
        return _cmd_list_runs(args)
    if args.verify_run is not None:
        return _cmd_verify_run(args)
    if args.profile_cell is not None:
        return _cmd_profile_cell(args)
    if not args.ids:
        parser.error(
            "experiment ids are required "
            "(or --list-runs/--verify-run/--profile-cell)"
        )
    if args.resume is not None and args.no_cache:
        parser.error("--resume needs the cache; drop --no-cache")
    if args.backend_exec == "remote" and not args.connect:
        parser.error("--backend-exec remote needs at least one --connect")
    if args.connect and args.backend_exec != "remote":
        parser.error("--connect needs --backend-exec remote")
    if args.remote_cache is not None and args.no_cache:
        parser.error("--remote-cache needs the local cache; drop --no-cache")
    if args.recovery is not None and args.failure_mtbf is None:
        parser.error("--recovery needs --failure-mtbf")
    if args.failure_mttr is not None and args.failure_mtbf is None:
        parser.error("--failure-mttr needs --failure-mtbf")
    try:
        scenario = scenario_from_args(args)
    except (OSError, ValueError) as exc:
        parser.error(f"bad scenario: {exc}")

    source_trace = None
    if args.swf is not None:
        from repro.workloads.swf import read_swf

        source_trace = read_swf(args.swf)
        print(f"loaded {len(source_trace)} jobs from {args.swf}", file=sys.stderr)

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
