"""Feeding the workloads to the program and reading its outputs back.

Two drivers share one shape: ``setup`` builds the inputs from the seed,
``rep`` runs the measured section once and returns what the program
delivered, ``traced_rep`` does the same under ``tracing.installed`` and
derives the per-layer metrics.  The program receives the generated job
stream (as a job list or an SWF file) and nothing else: neither the
seed nor the workload's name.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import pickle
import random
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from benchmarks.e2e import tracing
from benchmarks.e2e.spec import (
    PER_LAYER_NAMES,
    TOTAL_NODES,
    TRACE_SEED,
    Workload,
)

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: Half-width of the seeded perturbation applied to the base trace.
JITTER = 0.005

#: One delivered cell: (repr(objective), repr(makespan), max_queue_length).
Triple = tuple[str, str, int]


def job_stream(n_jobs: int, seed: int) -> list:
    """The job stream every workload is cut from.

    A fresh CTC-like draw per seed would be the obvious recipe, but the
    conservative cells' cost follows the backlog the draw happens to
    build: over seeds 1-10 a 1,500-job draw cost 1.7 s to 3.6 s, a spread
    three times any bound a timing metric may carry.  So the draw is
    fixed (``TRACE_SEED``) and ``seed`` perturbs it instead: every
    inter-arrival gap and every runtime (the estimate with it) is scaled
    by an independent factor within +-``JITTER``.  All job data and all
    simulated results differ between seeds; the offered load does not.
    The conservative cells stay chaotic in their input (11 % spread over
    ten seeds at +-2 %, 7 % at +-0.5 %, 6 % at +-0.1 %), hence the small
    amplitude.
    """
    from repro.workloads import ctc_like_workload
    from repro.workloads.transforms import cap_nodes

    base = cap_nodes(ctc_like_workload(n_jobs=n_jobs, seed=TRACE_SEED), TOTAL_NODES)
    rng = random.Random(seed)
    low, high = 1.0 - JITTER, 1.0 + JITTER
    out = []
    previous = 0.0
    clock = 0.0
    for job in base:
        clock += (job.submit_time - previous) * rng.uniform(low, high)
        previous = job.submit_time
        factor = rng.uniform(low, high)
        out.append(replace(
            job,
            submit_time=clock,
            runtime=job.runtime * factor,
            estimate=None if job.estimate is None else job.estimate * factor,
        ))
    return out


@dataclass
class Delivery:
    """What one repetition delivered, read back outside the timed section."""

    #: cell id -> triple; a cell delivered twice (figure after table)
    #: must agree with itself, else it lands in ``problems``.
    cells: dict[str, Triple] = field(default_factory=dict)
    #: Sum over delivered cells of the jobs in the cell.
    jobs: int = 0
    #: Cells the repetition reported (a sweep delivers shared cells twice).
    delivered: int = 0
    #: (cell id, reason) for deliveries that are wrong in themselves.
    problems: list[tuple[str, str]] = field(default_factory=list)
    #: Engine-side timings the 2-worker run's event stream exposes.
    events: dict[str, float] = field(default_factory=dict)


def _triple(cell) -> Triple:
    return (repr(cell.objective), repr(cell.makespan), cell.max_queue_length)


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _timed(fn, *args) -> tuple[float, float, object]:
    """(wall, cpu, result) of one call."""
    c0 = _cpu_seconds()
    t0 = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - t0
    return wall, _cpu_seconds() - c0, result


def _program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # The program picks its backend from REPRO_BACKEND when the flag is
    # absent; the benchmark measures backend=auto.
    env.pop("REPRO_BACKEND", None)
    return env


class Driver:
    """Common state: the workload row, its size and a scratch directory."""

    #: Whose ``ru_maxrss`` is the program's: this process or its children.
    rss_who = resource.RUSAGE_SELF

    def __init__(self, workload: Workload, scale: str, tmp: Path) -> None:
        self.workload = workload
        self.n = workload.size(scale)
        self.tmp = tmp
        self.trace_path = tmp / "trace.swf"
        #: Set-up timers and counts, reported as per-layer metrics.
        self.setup_metrics: dict[str, float] = {}
        self._reps = 0

    def _write_trace(self, seed: int) -> list:
        from repro.workloads.swf import write_swf

        t0 = time.perf_counter()
        jobs = job_stream(self.n, seed)
        t1 = time.perf_counter()
        write_swf(jobs, self.trace_path)
        t2 = time.perf_counter()
        self.setup_metrics["workloads.generate_s"] = t1 - t0
        self.setup_metrics["workloads.swf_write_s"] = t2 - t1
        self.setup_metrics["workloads.jobs"] = len(jobs)
        return jobs

    def peak_rss_mb(self) -> float:
        return resource.getrusage(self.rss_who).ru_maxrss / 1024.0


class EngineDriver(Driver):
    """``ExperimentEngine(workers=1, cache=None).run`` in this process."""

    def setup(self, seed: int) -> None:
        from repro.scenarios import ScenarioSpec
        from repro.schedulers.registry import SchedulerConfig
        from repro.workloads.swf import ParseReport, read_swf

        self._write_trace(seed)
        report = ParseReport()
        t0 = time.perf_counter()
        self.jobs = read_swf(self.trace_path, report=report)
        self.setup_metrics["workloads.swf_parse_s"] = time.perf_counter() - t0
        self.setup_metrics["workloads.swf_skipped"] = report.dropped
        self.configs = [
            SchedulerConfig(*key.split("/")) for key in self.workload.cells
        ]
        self.scenario = None
        if self.workload.scenario is not None:
            self.scenario = ScenarioSpec.from_dict(self.workload.scenario)
            t0 = time.perf_counter()
            compiled = self.scenario.compile(self.jobs)
            self.setup_metrics["scenarios.compile_s"] = time.perf_counter() - t0
            self.setup_metrics["scenarios.events"] = tracing.scenario_events(compiled)

    def cell_ids(self) -> list[str]:
        return list(self.workload.cells)

    def _run(self, backend: str):
        from repro.experiments import ExperimentEngine

        engine = ExperimentEngine(workers=1, cache=None, backend=backend)
        grid = engine.run(
            self.jobs,
            total_nodes=TOTAL_NODES,
            weighted=self.workload.weighted,
            configs=self.configs,
            scenario=self.scenario,
        )
        return engine, grid

    def rep(self, backend: str = "auto") -> tuple[float, float, Delivery]:
        wall, cpu, (engine, grid) = _timed(self._run, backend)
        return wall, cpu, self._delivery(engine, grid)

    def oracle(self) -> Delivery:
        """The same cells from the scalar python backend."""
        return self.rep("python")[2]

    def _delivery(self, engine, grid) -> Delivery:
        out = Delivery()
        for key, cell in grid.cells.items():
            out.cells[key] = _triple(cell)
            out.jobs += grid.n_jobs
            out.delivered += 1
        stats = engine.stats
        if stats.retries or stats.degraded_cells:
            out.problems.append(
                ("*", f"{stats.retries} retries, {stats.degraded_cells} degraded cells")
            )
        return out

    def traced_rep(self) -> tuple[float, Delivery, dict[str, float], tracing.Tracer]:
        tracer = tracing.Tracer(keep_results=True)
        with tracing.installed(tracer):
            wall, _cpu, (engine, grid) = _timed(self._run, "auto")
        delivery = self._delivery(engine, grid)
        metrics = _layer_metrics(tracer, wall)
        metrics.update(self._validate(tracer, delivery))
        metrics.update(_packing_probe(tracer.streams))
        return wall, delivery, metrics, tracer

    def _validate(self, tracer: tracing.Tracer, delivery: Delivery) -> dict[str, float]:
        """Check every schedule with code the schedulers do not share."""
        from repro.core.schedule import ValidityError
        from repro.failures.audit import AuditError, audit_run

        validate_s = audit_s = 0.0
        for sim in tracer.simulations:
            result, jobs, scenario = sim.pop("validate")
            failures = getattr(scenario, "failures", None)
            t0 = time.perf_counter()
            try:
                if failures:
                    audit_run(result, jobs, failures, TOTAL_NODES,
                              recovery=scenario.recovery)
                else:
                    result.schedule.validate(TOTAL_NODES)
            except (ValidityError, AuditError) as exc:
                delivery.problems.append((sim["cell"], f"invalid schedule: {exc}"))
            dt = time.perf_counter() - t0
            if failures:
                audit_s += dt
            else:
                validate_s += dt
        return {"metrics.validate_s": validate_s, "failures.audit_s": audit_s}


class CliDriver(Driver):
    """``python -m repro.experiments.cli all`` with two workers."""

    rss_who = resource.RUSAGE_CHILDREN

    def setup(self, seed: int) -> None:
        self._write_trace(seed)
        # Import cost is most of a warm rerun; one probe makes it visible
        # in set-up and gives cli.import_s its value.
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.experiments.cli"],
            env=_program_env(), check=True,
        )
        self.setup_metrics["cli.import_s"] = time.perf_counter() - t0
        self.warm_cache = self.tmp / "cache-warm"
        if self.workload.cache == "warm":
            code = self._invoke(self.warm_cache, self.tmp / "out-populate", 2, None)
            if code != 0:
                raise RuntimeError(
                    f"populating sweep exited {code}: {self._stderr_tail()}"
                )

    def cell_ids(self) -> list[str]:
        """Every (experiment, regime, cell) the ``all`` sweep reports."""
        from repro.experiments.paper import EXPERIMENTS
        from repro.schedulers.registry import paper_configurations

        keys = [config.key for config in paper_configurations()]
        return [
            f"{spec.description}|{regime}|{key}"
            for spec in EXPERIMENTS.values()
            for regime in spec.paper
            for key in keys
        ]

    def _argv(self, cache: Path, out: Path, workers: int,
              backend: str | None) -> list[str]:
        argv = [
            "all", "--swf", str(self.trace_path), "--scale", str(self.n),
            "--workers", str(workers), "--cache-dir", str(cache),
            "--out", str(out), "--events", str(out / "ev.jsonl"),
        ]
        if backend is not None:
            argv += ["--backend", backend]
        return argv

    def _invoke(self, cache: Path, out: Path, workers: int,
                backend: str | None) -> int:
        with open(self.tmp / "stderr.txt", "w") as stderr:
            return subprocess.run(
                [sys.executable, "-m", "repro.experiments.cli",
                 *self._argv(cache, out, workers, backend)],
                env=_program_env(), stdout=subprocess.DEVNULL, stderr=stderr,
            ).returncode

    def _stderr_tail(self) -> str:
        lines = (self.tmp / "stderr.txt").read_text().splitlines()
        return " | ".join(lines[-3:])

    def _dirs(self) -> tuple[Path, Path]:
        """Cache and report directories of the next repetition."""
        self._reps += 1
        out = self.tmp / f"out-{self._reps}"
        if self.workload.cache == "warm":
            return self.warm_cache, out
        return self.tmp / f"cache-{self._reps}", out

    def rep(self, backend: str | None = None) -> tuple[float, float, Delivery]:
        cache, out = self._dirs()
        wall, cpu, code = _timed(self._invoke, cache, out, 2, backend)
        if code != 0:
            delivery = Delivery(problems=[("*", f"exit {code}: {self._stderr_tail()}")])
        else:
            delivery = self._delivery(cache, out, workers=2)
        self._discard(cache, out)
        return wall, cpu, delivery

    def oracle(self) -> Delivery:
        """The same sweep from the scalar python backend, on an empty cache."""
        cache, out = self.tmp / "cache-oracle", self.tmp / "out-oracle"
        code = self._invoke(cache, out, 2, "python")
        if code != 0:
            return Delivery(problems=[("*", f"exit {code}: {self._stderr_tail()}")])
        delivery = self._delivery(cache, out, workers=2, expect_hits=False)
        self._discard(cache, out)
        return delivery

    def _discard(self, cache: Path, out: Path) -> None:
        shutil.rmtree(out, ignore_errors=True)
        if cache != self.warm_cache:
            shutil.rmtree(cache, ignore_errors=True)

    def _delivery(self, cache_dir: Path, out: Path, workers: int,
                  expect_hits: bool | None = None) -> Delivery:
        """Read one sweep's results back: events, journals, cache entries."""
        from repro.experiments.engine import ResultCache
        from repro.experiments.journal import journal_path, read_journal

        if expect_hits is None:
            expect_hits = self.workload.cache == "warm"

        result = Delivery()
        cache = ResultCache(cache_dir)
        journal = None
        grid = ""
        cell_sum = slowest = run_s = 0.0
        hits = 0
        with open(out / "ev.jsonl") as handle:
            events = [json.loads(line) for line in handle]
        for event in events:
            kind = event["kind"]
            if kind == "grid-started":
                regime = "weighted" if event["weighted"] else "unweighted"
                grid = f"{event['workload_name']}|{regime}"
                journal = read_journal(journal_path(cache_dir / "runs", event["run_id"]))
            elif kind == "grid-finished":
                run_s += event["wall_time"]
            elif kind in ("cell-retry", "engine-degraded"):
                result.problems.append((f"{grid}|{event['key']}", kind))
            elif kind in ("cell-finished", "cache-hit"):
                cell_id = f"{grid}|{event['key']}"
                result.delivered += 1
                result.jobs += journal.manifest["n_jobs"]
                if event["cached"]:
                    hits += 1
                elif expect_hits:
                    result.problems.append((cell_id, "simulated on a warm cache"))
                if event["wall_time"] is not None:
                    cell_sum += event["wall_time"]
                    slowest = max(slowest, event["wall_time"])
                record = journal.cells.get(event["key"])
                cell = cache.get(record.fingerprint) if record is not None else None
                if cell is None:
                    result.problems.append((cell_id, "no verified cache entry"))
                    continue
                if cell.objective != event["objective"]:
                    result.problems.append((cell_id, "event and cache entry disagree"))
                triple = _triple(cell)
                if result.cells.setdefault(cell_id, triple) != triple:
                    result.problems.append((cell_id, "delivered twice, differently"))
        result.events = {
            "engine.cell_sum_s": cell_sum,
            "engine.slowest_cell_s": slowest,
            "engine.overhead_s": run_s - cell_sum / workers,
            "engine.worker_busy_share": cell_sum / (workers * run_s) if run_s else 0.0,
            "cache.hit_ratio": hits / result.delivered if result.delivered else 0.0,
            "cache.bytes": _tree_bytes(cache_dir, skip="runs"),
            "journal.bytes": _tree_bytes(cache_dir / "runs"),
            "tables.bytes": sum(p.stat().st_size for p in out.glob("*.txt")),
        }
        return result

    def traced_rep(self) -> tuple[float, Delivery, dict[str, float], tracing.Tracer]:
        from repro.experiments import cli

        cache, out = self._dirs()
        tracer = tracing.Tracer()
        argv = self._argv(cache, out, 1, None)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            with tracing.installed(tracer):
                t0 = time.perf_counter()
                with tracer.span("cli.main"):
                    code = cli.main(argv)
                wall = time.perf_counter() - t0
            audit = cli.main(["--verify-run", "all", "--cache-dir", str(cache)])
        if code != 0:
            delivery = Delivery(problems=[("*", f"cli.main returned {code}")])
        else:
            delivery = self._delivery(cache, out, workers=1)
        if audit != 0:
            delivery.problems.append(("*", "--verify-run all found an inconsistency"))
        metrics = _layer_metrics(tracer, wall)
        for name in ("cache.hit_ratio", "cache.bytes", "journal.bytes", "tables.bytes"):
            metrics[name] = delivery.events.get(name, 0.0)
        metrics.update(_packing_probe(tracer.streams))
        self._discard(cache, out)
        return wall, delivery, metrics, tracer


DRIVERS = {"engine": EngineDriver, "cli": CliDriver}


def _tree_bytes(root: Path, skip: str | None = None) -> int:
    total = 0
    for dirpath, dirnames, filenames in os.walk(root):
        if skip is not None and Path(dirpath) == root:
            dirnames[:] = [d for d in dirnames if d != skip]
        total += sum((Path(dirpath) / f).stat().st_size for f in filenames)
    return total


def _packing_probe(streams: list[list]) -> dict[str, float]:
    """Time core.packing and the workload store on the fed streams.

    With one worker the engine never packs, so the traced run would
    report the layer as free.  The probe calls the layer's public
    functions on every stream the engine fingerprinted, after the clock
    has stopped, and prices what a 2-worker dispatch of it ships.
    """
    from repro.core.packing import fingerprint_packed, pack_jobs, unpack_jobs
    from repro.experiments.workload_store import WorkloadStore

    pack_s = unpack_s = fingerprint_s = register_s = 0.0
    packed_bytes = digest_bytes = 0
    for jobs in streams:
        t0 = time.perf_counter()
        packed = pack_jobs(jobs)
        t1 = time.perf_counter()
        unpack_jobs(packed)
        t2 = time.perf_counter()
        digest = fingerprint_packed(packed)
        t3 = time.perf_counter()
        WorkloadStore().register(digest, jobs)
        t4 = time.perf_counter()
        pack_s += t1 - t0
        unpack_s += t2 - t1
        fingerprint_s += t3 - t2
        register_s += t4 - t3
        packed_bytes += len(pickle.dumps(packed))
        digest_bytes = len(pickle.dumps(digest))
    return {
        "packing.pack_s": pack_s,
        "packing.unpack_s": unpack_s,
        "packing.fingerprint_s": fingerprint_s,
        "packing.bytes": packed_bytes,
        "store.register_s": register_s,
        "store.bytes_per_cell": digest_bytes,
    }


def _layer_metrics(tracer: tracing.Tracer, wall: float) -> dict[str, float]:
    """Fold one traced repetition into the per-layer metrics it can give."""
    totals = tracer.totals()
    layer_self = tracer.layer_self(totals)

    def total(name: str, index: int) -> float:
        return totals[name][index] if name in totals else 0

    def prefixed(prefix: str, index: int) -> float:
        return sum(rec[index] for name, rec in totals.items()
                   if name.startswith(prefix))

    sims = tracer.simulations
    decision_points = sum(s["decision_points"] for s in sims)
    coalesced = sum(s["coalesced_decision_points"] for s in sims)
    easy = [s for s in sims if s["cell"] == "fcfs/easy"]
    easy_points = sum(s["decision_points"] for s in easy)
    runs = tracer.engine_runs
    run_s = total("engine.run", tracing.TOTAL)
    cell_sum = total("engine.cell", tracing.TOTAL)
    cell_spans = [t1 - t0 for _i, name, t0, t1, *_ in tracer.spans
                  if name == "engine.cell"]
    select_calls = total("schedulers.select_jobs", tracing.CALLS)
    get_calls = total("cache.get", tracing.CALLS)
    metrics = {
        "workloads.generate_s": total("workloads.generate", tracing.TOTAL),
        "workloads.swf_parse_s": total("workloads.swf_parse", tracing.TOTAL),
        "simulator.run_s": total("simulator.run", tracing.TOTAL),
        "simulator.self_s": layer_self.get("simulator", 0.0),
        "simulator.decision_points": decision_points,
        "simulator.coalesced_decision_points": coalesced,
        "simulator.coalesced_share": coalesced / decision_points if decision_points else 0.0,
        "simulator.coalesced_share_fcfs_easy": (
            sum(s["coalesced_decision_points"] for s in easy) / easy_points
            if easy_points else 0.0
        ),
        "simulator.max_queue_length": max((s["max_queue_length"] for s in sims), default=0),
        "simulator.cancelled_queued": sum(s["cancelled_queued"] for s in sims),
        "simulator.killed_running": sum(s["killed_running"] for s in sims),
        "state.calls": prefixed("state.", tracing.CALLS),
        "state.self_s": layer_self.get("state", 0.0),
        "state.deltas": sum(s["profile_deltas"] for s in sims),
        "state.snapshots": sum(s["profile_snapshots"] for s in sims),
        "profile.allocate_calls": total("profile.allocate", tracing.CALLS),
        "profile.allocate_s": total("profile.allocate", tracing.TOTAL),
        "profile.earliest_start_calls": total("profile.earliest_start", tracing.CALLS),
        "profile.earliest_start_s": total("profile.earliest_start", tracing.TOTAL),
        "profile.reserve_calls": prefixed("profile.reserve", tracing.CALLS),
        "profile.reserve_s": prefixed("profile.reserve", tracing.TOTAL),
        "profile.release_calls": total("profile.release", tracing.CALLS),
        "profile.release_s": total("profile.release", tracing.TOTAL),
        "profile.clone_calls": total("profile.clone", tracing.CALLS),
        "profile.clone_s": total("profile.clone", tracing.TOTAL),
        "profile.self_s": layer_self.get("profile", 0.0),
        "vector.reduce_calls": total("vector.reduce", tracing.CALLS),
        "vector.reduce_s": total("vector.reduce", tracing.TOTAL),
        "metrics.objective_s": total("metrics.objective", tracing.TOTAL),
        "schedulers.callback_s": prefixed("schedulers.", tracing.TOTAL)
        - total("schedulers.reorder", tracing.TOTAL),
        "schedulers.select_s": total("schedulers.select_jobs", tracing.TOTAL),
        "schedulers.select_calls": select_calls,
        "schedulers.self_s": layer_self.get("schedulers", 0.0),
        "schedulers.starts_per_select": (
            total("schedulers.select_jobs", tracing.ITEMS) / select_calls
            if select_calls else 0.0
        ),
        "schedulers.reorder_calls": total("schedulers.reorder", tracing.CALLS),
        "schedulers.reorder_s": total("schedulers.reorder", tracing.TOTAL),
        "scenarios.compile_s": total("scenarios.compile", tracing.TOTAL),
        "scenarios.events": tracer.scenario_events,
        "failures.killed": sum(s["failure_killed"] for s in sims),
        "engine.run_s": run_s,
        "engine.cells": sum(r["cells"] for r in runs),
        "engine.simulated": sum(r["simulated"] for r in runs),
        "engine.cache_hits": sum(r["cache_hits"] for r in runs),
        "engine.retries": sum(r["retries"] for r in runs),
        "engine.degraded_cells": sum(r["degraded_cells"] for r in runs),
        "engine.fingerprint_s": total("engine.fingerprint_jobs", tracing.TOTAL)
        + total("engine.cell_fingerprint", tracing.TOTAL),
        "engine.cell_sum_s": cell_sum,
        "engine.slowest_cell_s": max(cell_spans, default=0.0),
        "engine.overhead_s": run_s - cell_sum,
        "engine.worker_busy_share": cell_sum / run_s if run_s else 0.0,
        "cache.get_calls": get_calls,
        "cache.get_s": total("cache.get", tracing.TOTAL),
        "cache.put_calls": total("cache.put", tracing.CALLS),
        "cache.put_s": total("cache.put", tracing.TOTAL),
        "cache.hit_ratio": total("cache.get", tracing.ITEMS) / get_calls if get_calls else 0.0,
        "journal.record_calls": total("journal.record_cell", tracing.CALLS),
        "journal.record_s": total("journal.record_cell", tracing.TOTAL),
        "tables.render_s": total("tables.render", tracing.TOTAL),
        "cli.main_s": total("cli.main", tracing.TOTAL),
        "trace.unattributed_share": max(0.0, 1.0 - sum(layer_self.values()) / wall),
    }
    return metrics


def complete_layer_metrics(metrics: dict[str, float]) -> dict[str, float]:
    """Every declared per-layer metric, 0 where the workload has no such work."""
    return {name: metrics.get(name, 0) for name in PER_LAYER_NAMES}


def check(delivery: Delivery, ids: list[str],
          expected: dict[str, list] | None) -> list[tuple[str, str]]:
    """Failed cells of one repetition: (cell id, reason).

    With ``expected`` every cell must equal its pinned triple; without,
    every declared cell must be present with a finite positive objective
    and makespan.
    """
    failed = dict(delivery.problems)
    if "*" in failed:  # the repetition as a whole failed: so did every cell
        return [(cell_id, failed["*"]) for cell_id in ids]
    for cell_id in ids:
        got = delivery.cells.get(cell_id)
        if got is None:
            failed.setdefault(cell_id, "missing from the output")
        elif expected is not None:
            want = expected.get(cell_id)
            if want is None or tuple(want) != got:
                failed.setdefault(cell_id, f"got {got}, pinned {want}")
        else:
            objective, makespan = float(got[0]), float(got[1])
            if not (math.isfinite(objective) and objective > 0
                    and math.isfinite(makespan) and makespan > 0 and got[2] >= 0):
                failed.setdefault(cell_id, f"implausible result {got}")
    for cell_id in delivery.cells:
        if cell_id not in ids:
            failed.setdefault(cell_id, "undeclared cell")
    return sorted(failed.items())
