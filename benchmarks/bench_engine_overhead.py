"""Dispatch-overhead benchmarks for the parallel experiment engine.

The engine fans the paper's 13-cell grid out over a process pool it keeps
for all its grids; the packed stream goes down each worker's pipe once
per grid, and a cell message carries only the cell's config.  These
benchmarks price that path:

* **payload bytes** — what crosses a worker's pipe: per cell the
  cell's ``SchedulerConfig`` (``store_bytes_per_cell``, the largest of
  the grid's, gated "must not grow" by ``check_regression.py``), and
  once per worker per grid the pickled grid template and packed stream;
* **pack / unpack / fingerprint throughput** — the fixed costs the store
  adds on the way in;
* **store dispatch** (script mode) — wall clock of the engine's pool loop
  running a grid of no-op cells on workers an earlier grid already
  started;
* **journal append** — the fsynced per-cell cost of the run journal, the
  price every journaled cell pays for crash tolerance.

Run under pytest-benchmark for statistics, or as a script for the CI
perf-smoke baseline::

    PYTHONPATH=src python benchmarks/bench_engine_overhead.py --bench-json BENCH_engine.json
"""

import argparse
import json
import pickle
import random
import tempfile
import time
import types
from pathlib import Path

from repro.core.job import Job
from repro.core.packing import fingerprint_packed, pack_jobs, unpack_jobs
from repro.experiments.engine import fingerprint_jobs

#: Cells in the paper's grid.
N_CELLS = 13
N_JOBS = 5_000
#: Pool workers in the dispatch benches (the paper sweeps' ``--workers 2``).
WORKERS = 2


def synthetic_workload(n: int = N_JOBS, seed: int = 0) -> list[Job]:
    """A deterministic n-job stream shaped like the CTC stand-in."""
    rng = random.Random(seed)
    jobs = []
    clock = 0.0
    for job_id in range(n):
        clock += rng.expovariate(1.0 / 90.0)
        runtime = rng.uniform(1.0, 5e4)
        jobs.append(
            Job(
                job_id=job_id,
                submit_time=clock,
                nodes=rng.randint(1, 256),
                runtime=runtime,
                estimate=runtime * rng.uniform(1.0, 8.0),
                user=rng.randint(0, 40),
            )
        )
    return jobs


def payload_bytes(jobs: list[Job]) -> dict[str, float]:
    """Bytes the pool sends a grid's workers, as ``PoolRun`` sends them.

    A cell message is the cell's ``SchedulerConfig``, pickled by the
    pipe's ``ForkingPickler`` (``Connection.send``); ``store_bytes_per_cell``
    is the largest of the paper's 13.  The grid payload, the pickled
    ``(CellRequest template, PackedJobs)`` pair, goes to each worker once
    per grid (``store_one_time_bytes``); ``store_grid_bytes`` is the 13
    cell messages plus the payload for each of ``WORKERS`` workers.
    """
    from multiprocessing.reduction import ForkingPickler

    from repro.experiments.engine import ExperimentEngine
    from repro.schedulers.registry import paper_configurations

    configs = list(paper_configurations())
    with ExperimentEngine() as engine:
        request = engine._prepare(jobs, total_nodes=256, configs=configs)
        template = request.cell_request(None, engine.backend)
    packed = pack_jobs(request.jobs)
    per_cell = [len(ForkingPickler.dumps(config)) for config in configs]
    one_time = len(pickle.dumps((template, packed), protocol=pickle.HIGHEST_PROTOCOL))
    return {
        "store_bytes_per_cell": max(per_cell),
        "store_one_time_bytes": one_time,
        "store_grid_bytes": sum(per_cell) + WORKERS * one_time,
    }


# -- pytest-benchmark entry points -----------------------------------------------


def test_pack_jobs_5k(benchmark):
    jobs = synthetic_workload()
    packed = benchmark(pack_jobs, jobs)
    assert len(packed) == len(jobs)


def test_unpack_jobs_5k(benchmark):
    packed = pack_jobs(synthetic_workload())
    jobs = benchmark(unpack_jobs, packed)
    assert len(jobs) == len(packed)


def test_fingerprint_packed_5k(benchmark):
    jobs = synthetic_workload()
    packed = pack_jobs(jobs)
    digest = benchmark(fingerprint_packed, packed)
    assert digest == fingerprint_jobs(jobs)


def test_pickle_roundtrip_packed_5k(benchmark):
    packed = pack_jobs(synthetic_workload())

    def roundtrip():
        return pickle.loads(pickle.dumps(packed, protocol=pickle.HIGHEST_PROTOCOL))

    out = benchmark(roundtrip)
    assert len(out) == len(packed)


def test_dispatch_payload_is_config_sized():
    """A cell message carries its config, never the stream: the per-cell
    payload is independent of the workload size."""
    small = payload_bytes(synthetic_workload(50))
    large = payload_bytes(synthetic_workload())
    print(
        f"\nstore={large['store_bytes_per_cell']:.0f} B/cell  "
        f"one-time pack={large['store_one_time_bytes']:.0f} B"
    )
    assert large["store_bytes_per_cell"] == small["store_bytes_per_cell"] < 128


# -- run-journal append cost ------------------------------------------------------


def measure_journal_append(records: int = 200) -> float:
    """Seconds per fsynced journal record (the per-cell crash-tolerance tax).

    Each grid cell adds a handful of journal records (scheduled, started,
    completed); this measures one append including its own fsync.  A
    serial 13-cell grid shares fsyncs — the lookup batch, then one per
    cell boundary (``completed`` with the next ``started``) — so it pays
    about ``16 * journal_append_per_record``.
    """
    from repro.experiments.journal import RunJournal, manifest_for

    with tempfile.TemporaryDirectory(prefix="repro-bench-journal-") as tmp:
        manifest = manifest_for(
            workload_digest="b" * 16,
            configs=["bench/easy"],
            total_nodes=256,
            weighted=False,
            recompute_threshold=2.0 / 3.0,
            failures_digest="",
            recovery="",
            cache_version=0,
            workload_name="bench",
        )
        path = Path(tmp) / "bench.jsonl"
        with RunJournal.create(path, manifest) as journal:
            t0 = time.perf_counter()
            for i in range(records):
                journal.record_cell(
                    "bench/easy", "completed", fingerprint="b" * 64,
                    objective=float(i),
                )
            elapsed = time.perf_counter() - t0
    return elapsed / records


def test_journal_append_fsynced(benchmark):
    from repro.experiments.journal import RunJournal, manifest_for

    manifest = manifest_for(
        workload_digest="b" * 16,
        configs=["bench/easy"],
        total_nodes=256,
        weighted=False,
        recompute_threshold=2.0 / 3.0,
        failures_digest="",
        recovery="",
        cache_version=0,
        workload_name="bench",
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-journal-") as tmp:
        with RunJournal.create(Path(tmp) / "bench.jsonl", manifest) as journal:
            benchmark(
                journal.record_cell,
                "bench/easy",
                "completed",
                fingerprint="b" * 64,
                objective=1.0,
            )


# -- real pool round-trips (script mode) -----------------------------------------


def _noop_cell(request, jobs):
    """A worker's cell that simulates nothing: it reports the stream length."""
    return types.SimpleNamespace(objective=float(len(jobs)))


def measure_pool_dispatch(jobs: list[Job], workers: int = WORKERS) -> float:
    """Wall clock of a second grid's worth of no-op cells on a warm pool.

    The engine keeps one pool for all its grids, so what a grid costs in
    dispatch is what it costs on workers that already run.  This times
    the engine's own loop (``PoolRun.execute``) over the paper's 13 cells:
    pack the new stream, send it once to each worker, which checks its
    digest and unpacks it, then per cell a config out and an answer back.
    A first grid (another stream) starts the workers outside the timed
    section; the workers' simulation is a no-op, so only dispatch is timed.
    """
    from repro.experiments import pool as pool_module
    from repro.experiments.engine import ExperimentEngine
    from repro.experiments.lifecycle import GridRun
    from repro.schedulers.registry import paper_configurations

    configs = list(paper_configurations())
    assert len(configs) == N_CELLS

    def grid(engine, stream):
        request = engine._prepare(stream, total_nodes=256, configs=configs)
        run = GridRun(request, cache=None, on_event=None, journal_root=None)
        pending = [(config, request.fingerprint(config)) for config in configs]
        return run, pool_module.PoolRun(engine, run, pending)

    saved = pool_module._simulate
    pool_module._simulate = _noop_cell  # set before the pool forks its workers
    try:
        with ExperimentEngine(workers=workers) as engine:
            grid(engine, jobs[: len(jobs) // 2])[1].execute()
            run, pool_run = grid(engine, jobs)
            t0 = time.perf_counter()
            leftovers = pool_run.execute()
            elapsed = time.perf_counter() - t0
    finally:
        pool_module._simulate = saved
    assert leftovers == [] and run.stats.retries == 0
    assert [cell.objective for cell in run.results.values()] == [len(jobs)] * N_CELLS
    return elapsed


def collect_measurements(rounds: int = 3) -> dict[str, float]:
    jobs = synthetic_workload()
    packed = pack_jobs(jobs)

    def best_of(fn) -> float:
        fn()
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    measurements = {
        "pack_jobs_5k": best_of(lambda: pack_jobs(jobs)),
        "unpack_jobs_5k": best_of(lambda: unpack_jobs(packed)),
        "fingerprint_packed_5k": best_of(lambda: fingerprint_packed(packed)),
        "fingerprint_jobs_5k": best_of(lambda: fingerprint_jobs(jobs)),
        "pool_dispatch_store": measure_pool_dispatch(jobs),
        "journal_append_per_record": measure_journal_append(),
    }
    measurements.update(payload_bytes(jobs))
    return measurements


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--bench-json",
        type=Path,
        default=None,
        help="write measurements to this JSON file (perf-smoke baseline)",
    )
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)

    measurements = collect_measurements(rounds=args.rounds)
    for name, value in measurements.items():
        unit = "" if "bytes" in name or name.endswith("_x") else " s"
        print(f"{name}: {value:.6g}{unit}")
    if args.bench_json is not None:
        args.bench_json.write_text(
            json.dumps({"suite": "engine", "seconds": measurements}, indent=2) + "\n"
        )
        print(f"wrote {args.bench_json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
