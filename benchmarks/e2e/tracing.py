"""Per-layer tracing from outside the program.

``installed(tracer)`` replaces each layer's public functions with timing
wrappers for the duration of a ``with`` block and puts the originals
back afterwards.  Nothing under ``src/`` knows it is traced.

A wrapper records one span per call: name, start, end, the span that
caused it and the grid cell it ran for.  Calls into the inner-loop
layers (``profile``, ``state``, ``schedulers``, ``vector``, ``metrics``)
number in the millions, so their spans are folded into per-(cell, name,
parent name) aggregates as they close; spans of every other layer are
kept one by one.  Both live in memory until the run writes them out.

A span's self time is its duration minus the time its child spans
cover, so the self times of all spans sum to the traced wall-clock less
what ran outside every wrapper (``trace.unattributed_share``).
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from types import FunctionType
from typing import Callable, Iterator

#: Layers whose spans are aggregated on close instead of kept.
HOT_LAYERS = frozenset({"profile", "state", "schedulers", "vector", "metrics"})

# Aggregate record layout.
CALLS, TOTAL, SELF, ITEMS = range(4)


class Tracer:
    """Span stack, kept spans, aggregates and per-simulation counters."""

    def __init__(self, *, keep_results: bool = False) -> None:
        # Frame layout: [name, seconds covered by children, span id].
        self.stack: list[list] = [["", 0.0, None]]
        self.grid = ""
        self.cell = ""
        #: (grid, cell) -> {(name, parent name): [calls, total_s, self_s, items]}
        self.aggregates: dict[tuple[str, str], dict[tuple[str, str], list]] = {}
        self.cur = self.aggregates.setdefault(("", ""), {})
        #: Kept spans: (id, name, start, end, parent id, grid, cell).
        self.spans: list[tuple] = []
        #: One dict of SimulationResult counters per Simulator.run call.
        self.simulations: list[dict] = []
        #: RunStats of each ExperimentEngine.run call.
        self.engine_runs: list[dict] = []
        #: Job streams the engine fingerprinted, first sight only.
        self.streams: list[list] = []
        #: When set, ``simulations`` entries keep (result, jobs, scenario)
        #: under ``validate`` until the harness has checked each schedule,
        #: after the clock stops.
        self.keep_results = keep_results
        self.scenario_events = 0
        self._next_id = 0
        #: Patch points named in ``_patch_points`` but absent from the
        #: program (a later refactor moved them): reported, not fatal.
        self.missing: list[str] = []

    def scope(self, grid: str, cell: str) -> None:
        self.grid, self.cell = grid, cell
        self.cur = self.aggregates.setdefault((grid, cell), {})

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A kept span around a block of the harness's own calls."""
        parent = self.stack[-1]
        frame = [name, 0.0, self._next_id]
        self._next_id += 1
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            _close(self, frame, parent, t0, t1, kept=True)

    # -- folding ----------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """Aggregates summed over cells and parents: name -> record."""
        out: dict[str, list] = {}
        for per_cell in self.aggregates.values():
            for (name, _parent), rec in per_cell.items():
                acc = out.setdefault(name, [0, 0.0, 0.0, 0])
                for i in range(4):
                    acc[i] += rec[i]
        return out

    @staticmethod
    def layer_self(totals: dict[str, list]) -> dict[str, float]:
        """Self seconds per layer (the part of a name before the dot)."""
        out: dict[str, float] = {}
        for name, rec in totals.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + rec[SELF]
        return out

    def dump(self) -> dict:
        """JSON form of everything recorded, for ``--out``."""
        return {
            "spans": [
                {"id": sid, "name": name, "start": t0, "end": t1,
                 "parent": parent, "grid": grid, "cell": cell}
                for sid, name, t0, t1, parent, grid, cell in self.spans
            ],
            "aggregates": [
                {"grid": grid, "cell": cell, "name": name, "parent": parent,
                 "calls": rec[CALLS], "total_s": rec[TOTAL],
                 "self_s": rec[SELF], "items": rec[ITEMS]}
                for (grid, cell), per_cell in self.aggregates.items()
                for (name, parent), rec in per_cell.items()
            ],
            "simulations": self.simulations,
            "missing_patch_points": self.missing,
        }


def _close(tracer: Tracer, frame: list, parent: list, t0: float, t1: float,
           kept: bool) -> list:
    dt = t1 - t0
    parent[1] += dt
    name = frame[0]
    key = (name, parent[0])
    rec = tracer.cur.get(key)
    if rec is None:
        rec = tracer.cur[key] = [0, 0.0, 0.0, 0]
    rec[CALLS] += 1
    rec[TOTAL] += dt
    rec[SELF] += dt - frame[1]
    if kept:
        tracer.spans.append(
            (frame[2], name, t0, t1, parent[2], tracer.grid, tracer.cell)
        )
    return rec


def _wrap(tracer: Tracer, name: str, fn: Callable, *,
          before: Callable | None = None, after: Callable | None = None) -> Callable:
    """Timing wrapper for ``fn``.

    ``before(tracer, args, kwargs)`` runs ahead of the clock and returns
    a token; ``after(tracer, result, args, kwargs, token)`` runs once the
    span is closed and may return a count added to the record's items.
    """
    stack = tracer.stack
    perf = time.perf_counter
    kept = name.split(".", 1)[0] not in HOT_LAYERS

    if not kept and before is None and after is None:
        # The inner-loop variant: nothing but the two clock reads and the
        # aggregate update, because it runs around ~10^6 calls per cell.
        def hot(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, parent[2]]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                parent[1] += dt
                key = (name, parent[0])
                rec = tracer.cur.get(key)
                if rec is None:
                    rec = tracer.cur[key] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]

        hot.__e2e_traced__ = fn  # type: ignore[attr-defined]
        return hot

    def wrapper(*args, **kwargs):
        token = before(tracer, args, kwargs) if before is not None else None
        parent = stack[-1]
        if kept:
            sid = tracer._next_id
            tracer._next_id += 1
        else:
            sid = parent[2]
        frame = [name, 0.0, sid]
        stack.append(frame)
        t0 = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf()
            stack.pop()
            rec = _close(tracer, frame, parent, t0, t1, kept)
        if after is not None:
            items = after(tracer, result, args, kwargs, token)
            if items:
                rec[ITEMS] += items
        return result

    wrapper.__e2e_traced__ = fn  # type: ignore[attr-defined]
    return wrapper


# -- hooks: what the results already expose, read at the boundary ------------


def _before_engine_run(tracer: Tracer, args, kwargs):
    regime = "weighted" if kwargs.get("weighted") else "unweighted"
    previous = (tracer.grid, tracer.cell)
    tracer.scope(f"{kwargs.get('workload_name', 'workload')}|{regime}", "")
    return previous


def _after_engine_run(tracer: Tracer, grid, args, kwargs, previous):
    stats = args[0].stats
    tracer.engine_runs.append({
        "grid": tracer.grid,
        "cells": stats.total_cells,
        "simulated": stats.simulated,
        "cache_hits": stats.cache_hits,
        "retries": stats.retries,
        "degraded_cells": stats.degraded_cells,
        "n_jobs": grid.n_jobs,
    })
    tracer.scope(*previous)


def _before_cell(tracer: Tracer, args, kwargs):
    previous = tracer.cell
    tracer.scope(tracer.grid, args[0].key)
    return previous


def _after_cell(tracer: Tracer, result, args, kwargs, previous):
    tracer.scope(tracer.grid, previous)


def _after_simulation(tracer: Tracer, result, args, kwargs, token):
    sim = {
        "grid": tracer.grid,
        "cell": tracer.cell,
        "jobs": result.job_count,
        "decision_points": result.decision_points,
        "coalesced_decision_points": result.coalesced.get("decision_points", 0),
        "max_queue_length": result.max_queue_length,
        "cancelled_queued": len(result.cancelled_queued),
        "killed_running": len(result.killed_running),
        "profile_deltas": result.profile_deltas,
        "profile_snapshots": result.profile_snapshots,
        "failure_killed": len(result.failure_killed),
    }
    if tracer.keep_results:
        jobs = args[1] if len(args) > 1 else kwargs["jobs"]
        sim["validate"] = (result, jobs, kwargs.get("scenario"))
    tracer.simulations.append(sim)


def _after_select(tracer: Tracer, started, args, kwargs, token):
    return len(started)


def _after_cache_get(tracer: Tracer, cell, args, kwargs, token):
    return 1 if cell is not None else 0


def _after_fingerprint_jobs(tracer: Tracer, digest, args, kwargs, token):
    jobs = args[0]
    if not any(jobs is seen for seen in tracer.streams):
        tracer.streams.append(jobs)


def scenario_events(compiled) -> int:
    """Failures plus cancellations a compiled scenario injects."""
    inputs = compiled.inputs
    failures = len(inputs.failures) if inputs.failures is not None else 0
    return len(inputs.cancellations) + failures


def _after_compile(tracer: Tracer, compiled, args, kwargs, token):
    tracer.scenario_events = scenario_events(compiled)


_HOOKS: dict[str, dict[str, Callable]] = {
    "engine.run": {"before": _before_engine_run, "after": _after_engine_run},
    "engine.cell": {"before": _before_cell, "after": _after_cell},
    "simulator.run": {"after": _after_simulation},
    "schedulers.select_jobs": {"after": _after_select},
    "cache.get": {"after": _after_cache_get},
    "engine.fingerprint_jobs": {"after": _after_fingerprint_jobs},
    "scenarios.compile": {"after": _after_compile},
}


# -- the patch points ---------------------------------------------------------


def _public_methods(cls: type) -> list[str]:
    return [
        attr for attr, value in vars(cls).items()
        if not attr.startswith("_") and isinstance(value, FunctionType)
    ]


def _patch_points() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every layer boundary.

    A function imported by name into another module is patched at each
    binding the program calls it through.
    """
    import repro.analysis.persistence as persistence
    import repro.core.packing as packing
    import repro.core.vector as vector
    import repro.experiments.engine as engine
    import repro.experiments.paper as paper
    import repro.experiments.runner as runner
    import repro.experiments.workload_store as workload_store
    import repro.workloads.swf as swf
    from repro.core.profile import AvailabilityProfile
    from repro.core.simulator import Simulator
    from repro.core.state import SchedulingState
    from repro.experiments.journal import RunJournal
    from repro.scenarios.spec import ScenarioSpec
    from repro.schedulers.psrs import PsrsOrderPolicy
    from repro.schedulers.smart import SmartOrderPolicy

    points: list[tuple[object, str, str]] = []
    points += [(AvailabilityProfile, m, f"profile.{m}")
               for m in _public_methods(AvailabilityProfile)]
    points += [(SchedulingState, m, f"state.{m}")
               for m in _public_methods(SchedulingState)]
    points += [(runner.TimingScheduler, m, f"schedulers.{m}")
               for m in _public_methods(runner.TimingScheduler)]
    points += [
        (SmartOrderPolicy, "compute_order", "schedulers.reorder"),
        (PsrsOrderPolicy, "compute_order", "schedulers.reorder"),
        (Simulator, "run", "simulator.run"),
        (vector, "exact_sum", "vector.reduce"),
        (vector, "average_response_time_columns", "metrics.objective"),
        (vector, "average_weighted_response_time_columns", "metrics.objective"),
        (runner, "average_response_time", "metrics.objective"),
        (runner, "average_weighted_response_time", "metrics.objective"),
        (ScenarioSpec, "compile", "scenarios.compile"),
        (packing, "pack_jobs", "packing.pack"),
        (workload_store, "pack_jobs", "packing.pack"),
        (packing, "unpack_jobs", "packing.unpack"),
        (runner, "unpack_jobs", "packing.unpack"),
        (packing, "fingerprint_packed", "packing.fingerprint"),
        (engine.ExperimentEngine, "run", "engine.run"),
        (engine, "simulate_cell", "engine.cell"),
        (engine, "fingerprint_jobs", "engine.fingerprint_jobs"),
        (engine, "cell_fingerprint", "engine.cell_fingerprint"),
        (engine.ResultCache, "get", "cache.get"),
        (engine.ResultCache, "put", "cache.put"),
        (RunJournal, "create", "journal.create"),
        (RunJournal, "record_cell", "journal.record_cell"),
        (RunJournal, "record_cache_health", "journal.record_cache_health"),
        (RunJournal, "close", "journal.close"),
        (workload_store.WorkloadStore, "register", "store.register"),
        (paper, "_experiment_jobs", "workloads.generate"),
        (swf, "read_swf", "workloads.swf_parse"),
        (paper, "format_grid", "tables.render"),
        (paper, "format_compute_times", "tables.render"),
        (paper, "format_bars", "tables.render"),
        (paper, "format_comparison", "tables.render"),
        (paper, "agreement_score", "tables.render"),
        (persistence, "append_events", "cli.append_events"),
    ]
    return points


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Wrap every patch point for the block, then restore the originals."""
    saved: list[tuple[object, str, object]] = []
    try:
        for owner, attr, name in _patch_points():
            try:
                original = inspect.getattr_static(owner, attr)
            except AttributeError:
                tracer.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            hooks = _HOOKS.get(name, {})
            if isinstance(original, classmethod):
                patched: object = classmethod(
                    _wrap(tracer, name, original.__func__, **hooks)
                )
            else:
                patched = _wrap(tracer, name, original, **hooks)
            saved.append((owner, attr, original))
            setattr(owner, attr, patched)
        if tracer.missing:
            print(f"tracing: patch points not found: {', '.join(tracer.missing)}",
                  file=sys.stderr)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def still_wrapped() -> list[str]:
    """Patch points that currently hold a wrapper (the self-check's probe)."""
    out = []
    for owner, attr, _name in _patch_points():
        try:
            value = inspect.getattr_static(owner, attr)
        except AttributeError:
            continue
        if isinstance(value, classmethod):
            value = value.__func__
        if hasattr(value, "__e2e_traced__"):
            out.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return out
