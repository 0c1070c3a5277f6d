"""Microbenchmarks of the availability profile — the measured hot spot.

Conservative backfilling issues hundreds of thousands of first-fit queries
per simulated month; these benchmarks track the profile's query and
reservation costs so a regression is caught before it melts the Table 3
runtimes.  (This is also where the NumPy-vs-lists decision documented in
``repro/core/profile.py`` was measured.)

Run under pytest-benchmark for statistics, or as a script for the CI
perf-smoke baseline::

    PYTHONPATH=src python benchmarks/bench_profile.py --bench-json BENCH_profile.json
"""

import argparse
import json
import random
import time
from pathlib import Path

from repro.core import vector
from repro.core.job import Job
from repro.core.profile import AvailabilityProfile
from repro.core.schedule import ScheduledJob
from repro.core.state import SchedulingState
from repro.metrics.objectives import (
    average_response_time,
    average_weighted_response_time,
)


def build_profile(n_reservations: int, total_nodes: int = 256, seed: int = 0):
    rng = random.Random(seed)
    profile = AvailabilityProfile(total_nodes)
    for _ in range(n_reservations):
        nodes = rng.randint(1, total_nodes // 4)
        duration = rng.uniform(10.0, 5000.0)
        after = rng.uniform(0.0, 1e5)
        start = profile.earliest_start(nodes, duration, after=after)
        profile.reserve(start, duration, nodes)
    return profile


def test_profile_build_and_reserve(benchmark):
    profile = benchmark(build_profile, 200)
    assert profile.steps()[-1][1] == 256


def test_earliest_start_queries(benchmark):
    profile = build_profile(300)
    rng = random.Random(1)
    queries = [
        (rng.randint(1, 256), rng.uniform(10.0, 5000.0), rng.uniform(0.0, 1e5))
        for _ in range(500)
    ]

    def run():
        total = 0.0
        for nodes, duration, after in queries:
            total += profile.earliest_start(nodes, duration, after=after)
        return total

    total = benchmark(run)
    assert total > 0


def test_allocate_fused(benchmark):
    """allocate() = earliest_start + reserve without the re-validation scan."""

    def run():
        profile = build_profile(50)
        rng = random.Random(7)
        for _ in range(250):
            nodes = rng.randint(1, 64)
            duration = rng.uniform(10.0, 5000.0)
            profile.allocate(nodes, duration, after=rng.uniform(0.0, 1e5))
        return profile

    profile = benchmark(run)
    assert profile.steps()[-1][1] == 256


def test_from_running_bulk(benchmark):
    rng = random.Random(2)
    running = [(rng.uniform(0.0, 1e5), rng.randint(1, 8)) for _ in range(120)]
    while sum(n for _e, n in running) > 256:
        running.pop()

    profile = benchmark(AvailabilityProfile.from_running, 256, 0.0, running)
    assert profile.steps()[-1][1] == 256


# -- incremental state vs rebuild-per-decision ---------------------------------
#
# The event trace below mimics a simulated month under backlog: jobs start
# and complete while the clock advances, and the scheduler snapshots the
# availability at every decision point.  The incremental path applies one
# O(log m) delta per event and clones on snapshot; the rebuild path sorts
# the whole running table at every decision point — the pattern the
# SchedulingState refactor removed.

_N_EVENTS = 400
_TOTAL = 256


def _event_trace(seed: int = 3):
    """(now, starts, completions) tuples driving both implementations."""
    rng = random.Random(seed)
    trace = []
    running = {}
    now = 0.0
    next_id = 0
    for _ in range(_N_EVENTS):
        now += rng.uniform(1.0, 50.0)
        done = [job_id for job_id, (end, _n) in running.items() if end <= now]
        for job_id in done:
            del running[job_id]
        starts = []
        used = sum(n for _e, n in running.values())
        for _ in range(rng.randint(1, 3)):
            nodes = rng.randint(1, _TOTAL // 8)
            if used + nodes > _TOTAL:
                break
            est = rng.uniform(10.0, 5000.0)
            running[next_id] = (now + est, nodes)
            starts.append((next_id, est, nodes))
            used += nodes
            next_id += 1
        trace.append((now, starts, done, list(running.items())))
    return trace


def _replay_incremental(trace):
    state = SchedulingState(_TOTAL)
    acc = 0.0
    for now, starts, done, _running in trace:
        state.advance(now)
        for job_id in done:
            state.on_release(job_id)
        for job_id, est, nodes in starts:
            state.on_start(job_id, est, nodes)
        acc += state.snapshot().free_at(now)
    return acc


def _replay_rebuild(trace):
    acc = 0.0
    for now, _starts, _done, running in trace:
        releases = [(end, nodes) for _job_id, (end, nodes) in running]
        profile = AvailabilityProfile.from_running(_TOTAL, now, releases)
        acc += profile.free_at(now)
    return acc


def test_incremental_state_replay(benchmark):
    trace = _event_trace()
    acc = benchmark(_replay_incremental, trace)
    assert acc == _replay_rebuild(trace)  # same availability at every point


def test_rebuild_per_decision_replay(benchmark):
    trace = _event_trace()
    acc = benchmark(_replay_rebuild, trace)
    assert acc > 0


def test_incremental_beats_rebuild():
    """The refactor's raison d'être: deltas + snapshots beat re-sorting.

    Measured outside pytest-benchmark so the two paths can be compared in
    one test; best-of-5 wall clock on identical traces.
    """
    trace = _event_trace()
    _replay_incremental(trace), _replay_rebuild(trace)  # warm up

    def best_of(fn, rounds=5):
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn(trace)
            best = min(best, time.perf_counter() - t0)
        return best

    incremental = best_of(_replay_incremental)
    rebuild = best_of(_replay_rebuild)
    print(
        f"\nincremental={incremental * 1e3:.2f}ms rebuild={rebuild * 1e3:.2f}ms "
        f"speedup={rebuild / incremental:.2f}x"
    )
    assert incremental < rebuild, (
        f"incremental state ({incremental:.4f}s) should beat "
        f"rebuild-per-decision ({rebuild:.4f}s)"
    )


# -- columnar metric kernels ------------------------------------------------------
#
# The reduction of ResultColumns with np.add.accumulate beats the scalar
# objective loops by well over an order of magnitude — the acceptance bar
# below asserts >= 5x with a wide margin.  It times the reduction alone:
# no simulation builds the columns any more, because appending every
# completion cost more than the scalar loop it replaced (see the decision
# record in docs/architecture.md).  The simulator's per-decision first-fit
# scans stay scalar on both backends.

_METRIC_N = 100_000


def _metric_fixture(n: int = _METRIC_N, seed: int = 5) -> list[ScheduledJob]:
    """A synthetic finished schedule, large enough to time the reductions."""
    rng = random.Random(seed)
    items = []
    for i in range(n):
        submit = rng.uniform(0.0, 1e6)
        start = submit + rng.uniform(0.0, 1e4)
        runtime = rng.uniform(10.0, 1e4)
        items.append(
            ScheduledJob(
                job=Job(
                    job_id=i,
                    submit_time=submit,
                    nodes=rng.randint(1, 64),
                    runtime=runtime,
                ),
                start_time=start,
                end_time=start + runtime,
            )
        )
    return items


def _bench_jobs(n: int = 1000, seed: int = 42, total_nodes: int = 256) -> list[Job]:
    """Deterministic stream with enough backlog to exercise the event loop."""
    rng = random.Random(seed)
    jobs = []
    t = 0.0
    for i in range(n):
        t += rng.uniform(0.0, 20.0)
        runtime = rng.uniform(1.0, 3000.0)
        jobs.append(
            Job(
                job_id=i,
                submit_time=t,
                nodes=rng.randint(1, total_nodes),
                runtime=runtime,
                estimate=runtime * rng.uniform(1.0, 4.0),
            )
        )
    return jobs


def test_metric_kernels_beat_scalar_5x():
    """Acceptance bar: the columnar metric kernels are >= 5x the scalar
    loops (and bit-identical).  Measured ~20-40x; 5x leaves CI headroom."""
    items = _metric_fixture()
    columns = vector.ResultColumns.from_schedule(items)

    def best_of(fn, rounds=5):
        fn()
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    assert vector.average_response_time_columns(columns) == (
        average_response_time(items)
    )
    assert vector.average_weighted_response_time_columns(columns) == (
        average_weighted_response_time(items)
    )
    scalar_art = best_of(lambda: average_response_time(items))
    vector_art = best_of(lambda: vector.average_response_time_columns(columns))
    scalar_awrt = best_of(lambda: average_weighted_response_time(items))
    vector_awrt = best_of(
        lambda: vector.average_weighted_response_time_columns(columns)
    )
    art_x = scalar_art / vector_art
    awrt_x = scalar_awrt / vector_awrt
    print(f"\nART {art_x:.1f}x  AWRT {awrt_x:.1f}x (vector vs scalar, n={len(items)})")
    assert art_x >= 5.0, f"ART kernel only {art_x:.1f}x the scalar loop"
    assert awrt_x >= 5.0, f"AWRT kernel only {awrt_x:.1f}x the scalar loop"


def _bench_spec():
    """A representative multi-phase scenario spec (no closed-loop users:
    FeedbackUsers *generates* the workload, it is not compile overhead)."""
    from repro.scenarios import (
        CancellationModel,
        FailureModel,
        LoadSurge,
        RuntimeVariability,
        ScenarioSpec,
    )

    return ScenarioSpec(
        (
            LoadSurge(at=500.0, duration=2_000.0, count=50),
            RuntimeVariability(estimate_sigma=0.3, enforce_limit=True),
            CancellationModel(fraction=0.1),
            FailureModel(mtbf=40_000.0, mttr=1_800.0, recovery="resubmit"),
        ),
        seed=7,
    )


def test_scenario_compile_overhead_under_5pct():
    """Acceptance bar for the scenario algebra: compiling a full
    multi-phase spec against a Table 3–8-scale stream costs < 5% of the
    simulation time of the grid it serves.  The engine compiles once per
    *grid*, not per cell, so the bar divides by the paper grid's cell
    count times one cell's time; against a single cell the ratio would be
    that many times larger."""
    from repro.core.machine import Machine
    from repro.core.simulator import SimulationConfig, Simulator
    from repro.schedulers.registry import (
        build_scheduler,
        paper_configurations,
        registered_configurations,
    )

    jobs = _bench_jobs()
    spec = _bench_spec()
    config = next(c for c in registered_configurations() if c.key == "fcfs/easy")

    def cell():
        return Simulator(
            Machine(256),
            build_scheduler(config, 256),
            SimulationConfig(backend="python"),
        ).run(jobs)

    cells = sum(1 for _ in paper_configurations())
    compile_time = _best_of(lambda: spec.compile(jobs))
    cell_time = _best_of(cell)
    ratio = compile_time / (cells * cell_time)
    print(
        f"\ncompile={compile_time * 1e3:.2f}ms cell={cell_time * 1e3:.2f}ms "
        f"x {cells} cells ({ratio * 100:.2f}% of the grid's runtime)"
    )
    assert ratio < 0.05, (
        f"scenario compile is {ratio * 100:.1f}% of the grid's runtime (bar: 5%)"
    )


def test_backend_end_to_end(benchmark):
    """Whole-simulation wall clock on the numpy backend, pinned bit-identical
    to the python oracle."""
    from repro.core.machine import Machine
    from repro.core.simulator import SimulationConfig, Simulator
    from repro.schedulers.registry import build_scheduler, registered_configurations

    jobs = _bench_jobs()
    config = next(
        c for c in registered_configurations() if c.key == "fcfs/easy"
    )

    def run(backend):
        return Simulator(
            Machine(256),
            build_scheduler(config, 256),
            SimulationConfig(backend=backend),
        ).run(jobs)

    fast = benchmark(run, "numpy")
    oracle = run("python")
    assert [
        (i.job.job_id, i.start_time, i.end_time) for i in fast.schedule
    ] == [(i.job.job_id, i.start_time, i.end_time) for i in oracle.schedule]


# -- script mode: JSON baseline for the CI perf-smoke gate -----------------------


def _best_of(fn, rounds: int = 5) -> float:
    fn()  # warm up
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def collect_measurements(rounds: int = 5) -> dict[str, float]:
    """Best-of-``rounds`` wall clock (seconds) for each tracked hot path."""
    profile = build_profile(300)
    rng = random.Random(1)
    queries = [
        (rng.randint(1, 256), rng.uniform(10.0, 5000.0), rng.uniform(0.0, 1e5))
        for _ in range(500)
    ]
    trace = _event_trace()

    def scalar_queries():
        for nodes, duration, after in queries:
            profile.earliest_start(nodes, duration, after=after)

    def allocate_churn():
        # From ~100 segments and from 200+, the size of a conservative
        # plan, where the first-fit scan is longest.
        for reservations in (50, 120):
            p = build_profile(reservations)
            churn = random.Random(7)
            for _ in range(250):
                p.allocate(
                    churn.randint(1, 64),
                    churn.uniform(10.0, 5000.0),
                    after=churn.uniform(0.0, 1e5),
                )

    items = _metric_fixture()
    columns = vector.ResultColumns.from_schedule(items)
    jobs = _bench_jobs()

    def simulate_cells(keys, stream, backend=None, scenario=None):
        from repro.core.machine import Machine
        from repro.core.simulator import SimulationConfig, Simulator
        from repro.schedulers.registry import (
            build_scheduler,
            registered_configurations,
        )

        configs = [c for c in registered_configurations() if c.key in keys]

        def run():
            jobs, inputs = stream, None
            if scenario is not None:
                # Compiled once per grid, inside the timing, as the
                # engine's _prepare does.
                compiled = scenario.compile(stream)
                jobs, inputs = compiled.jobs, compiled.inputs
            for config in configs:
                Simulator(
                    Machine(256),
                    build_scheduler(config, 256),
                    SimulationConfig(backend=backend),
                ).run(jobs, scenario=inputs)

        return run

    def end_to_end(backend):
        return simulate_cells(("fcfs/easy",), jobs, backend)

    def easy_20k(backend):
        from repro.workloads import ctc_like_workload
        from repro.workloads.transforms import cap_nodes

        return simulate_cells(
            ("fcfs/easy",),
            cap_nodes(ctc_like_workload(n_jobs=20_000, seed=42), 256),
            backend,
        )

    def anyfit_20k():
        from repro.workloads import ctc_like_workload
        from repro.workloads.transforms import cap_nodes

        return simulate_cells(
            ("gg/list",),
            cap_nodes(ctc_like_workload(n_jobs=20_000, seed=42), 256),
            "numpy",
        )

    def conservative_ctc600():
        from repro.workloads import ctc_like_workload
        from repro.workloads.transforms import cap_nodes

        return simulate_cells(
            ("fcfs/conservative", "psrs/conservative", "smart-ffia/conservative"),
            cap_nodes(ctc_like_workload(n_jobs=600, seed=42), 256),
        )

    def conservative_2k(backend):
        from repro.workloads import ctc_like_workload
        from repro.workloads.transforms import cap_nodes

        return simulate_cells(
            ("fcfs/conservative",),
            cap_nodes(ctc_like_workload(n_jobs=2000, seed=42), 256),
            backend,
        )

    def disturbed_ctc1000():
        from repro.scenarios import ScenarioSpec
        from repro.workloads import ctc_like_workload
        from repro.workloads.transforms import cap_nodes

        return simulate_cells(
            ("fcfs/list", "fcfs/easy", "gg/list"),
            cap_nodes(ctc_like_workload(n_jobs=1000, seed=42), 256),
            scenario=ScenarioSpec.from_dict(
                {
                    "seed": 7,
                    "components": [
                        {"kind": "failures", "mtbf": 40_000.0, "mttr": 3600.0,
                         "recovery": "resubmit"},
                        {"kind": "cancellations", "fraction": 0.05},
                    ],
                }
            ),  # fmt: skip
        )

    scalar_awrt = _best_of(lambda: average_weighted_response_time(items), rounds)
    vector_awrt = _best_of(
        lambda: vector.average_weighted_response_time_columns(columns), rounds
    )
    simulate_python = _best_of(end_to_end("python"), rounds)
    simulate_numpy = _best_of(end_to_end("numpy"), rounds)
    # A second each on the python walk: three rounds bound the cost.
    conservative_python = _best_of(conservative_2k("python"), min(rounds, 3))
    conservative_numpy = _best_of(conservative_2k("numpy"), min(rounds, 3))
    # Two seconds each on the python walk: two rounds.
    easy_20k_python = _best_of(easy_20k("python"), min(rounds, 2))
    easy_20k_numpy = _best_of(easy_20k("numpy"), min(rounds, 2))
    return {
        "earliest_start_500_queries": _best_of(scalar_queries, rounds),
        "allocate_churn_250": _best_of(allocate_churn, rounds),
        "incremental_state_replay": _best_of(
            lambda: _replay_incremental(trace), rounds
        ),
        # PR 6: the columnar kernels.  The two *_100k timings are the
        # columnar AWRT reduction vs the scalar objective loop on the same
        # 100k-item schedule; their ratio is gated >= 10x (see the
        # `_reduction_x` rule in check_regression.py — measured ~35x).
        # Only the benchmark harness reduces columns; simulations do not.
        "metric_scalar_awrt_100k": scalar_awrt,
        "metric_vector_awrt_100k": vector_awrt,
        "metric_kernel_reduction_x": scalar_awrt / vector_awrt,
        # PR 7: the scenario algebra.  Compiling a full multi-phase spec
        # (surge + variability + cancellations + MTBF failures) against a
        # 1000-event stream; bounded < 5% of a cell's simulation time by
        # test_scenario_compile_overhead_under_5pct.
        "scenario_compile_per_1k_events": _best_of(
            lambda: _bench_spec().compile(jobs), rounds
        ),
        "simulate_easy_1k_python": simulate_python,
        "simulate_easy_1k_numpy": simulate_numpy,
        # The whole-cell speedup of the numpy backend (the compiled EASY
        # walk; the static event timeline and everything else run on both
        # sides of the ratio) over the Python walks on the same host run —
        # a ratio of two same-regime timings, so it gates the fast path's
        # relative win independent of host speed drift (the `_speedup_x`
        # floor rule in check_regression.py).
        "simulate_easy_1k_speedup_x": simulate_python / simulate_numpy,
        # The same ratio on a 20,000-job CTC draw (seed 42), where the
        # backlog is long and the EASY walk is most of the cell.
        "simulate_easy_20k_speedup_x": easy_20k_python / easy_20k_numpy,
        # One gg/list cell on the same 20,000-job draw, numpy backend: the
        # any-fit scan runs at every decision point, and its exit when no
        # queued job fits the free nodes is what keeps the long backlog's
        # blocked arrivals cheap.
        "simulate_anyfit_20k": _best_of(anyfit_20k(), min(rounds, 3)),
        # PR 13: conservative backfilling's reservation plan.  The three
        # conservative cells of the end-to-end benchmark's ctc_conservative
        # workload (600-job CTC draw, seed 42, no jitter), so the plan
        # reuse is gated on this ladder too.  Re-recorded after ISSUE 22
        # (the walk's second exit, no dead breakpoints): 0.234 -> 0.157 s
        # back to back, best of 9.  Re-recorded once the fast backend ran
        # the queue walk as compiled C, and again once the plan lived in
        # the extension between decisions.
        "simulate_conservative_ctc600": _best_of(conservative_ctc600(), rounds),
        # The compiled conservative walk.  One fcfs/conservative
        # cell over a 2,000-job CTC draw (seed 42) on the python walk and on
        # the compiled one; their ratio is floored at 2x in
        # check_regression.py (a same-run ratio, so host speed cancels out).
        "simulate_conservative_2k_python": conservative_python,
        "simulate_conservative_2k_numpy": conservative_numpy,
        "simulate_conservative_2k_speedup_x": conservative_python / conservative_numpy,
        # PR 17: the general event path.  The three cells of the
        # end-to-end benchmark's ctc_disturbed workload (1,000-job CTC
        # draw, seed 42, no jitter) under its scenario — node failures
        # with resubmit plus 5 % cancellations, seed 7: ~5,500 node events
        # and 50 withdrawals walked off the static timeline, two list
        # cells that never build a profile.
        "simulate_disturbed_ctc1000": _best_of(disturbed_ctc1000(), rounds),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--bench-json",
        type=Path,
        default=None,
        help="write measurements to this JSON file (perf-smoke baseline)",
    )
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)

    measurements = collect_measurements(rounds=args.rounds)
    for name, value in measurements.items():
        if name.endswith("_x"):
            print(f"{name}: {value:.1f}x")
        else:
            print(f"{name}: {value * 1e3:.3f} ms")
    if args.bench_json is not None:
        args.bench_json.write_text(
            json.dumps({"suite": "profile", "seconds": measurements}, indent=2)
            + "\n"
        )
        print(f"wrote {args.bench_json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
