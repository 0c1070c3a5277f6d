"""Dispatch-overhead benchmarks for the parallel experiment engine.

The engine fans the paper's 13-cell grid out over a process pool it keeps
for all its grids; cells travel as the workload's digest and the packed
stream is spooled once per pool, for workers to hydrate on their first
cell of it.  These benchmarks price that path:

* **payload bytes per cell** — the 64-char digest each cell carries, plus
  the packed buffer spooled once per pool (``store_bytes_per_cell`` is
  gated "must not grow" by ``check_regression.py``);
* **pack / unpack / fingerprint throughput** — the fixed costs the store
  adds on the way in;
* **store dispatch** (script mode) — wall clock of a grid's round-trip
  through the spool on a pool an earlier grid already warmed;
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
from pathlib import Path

from repro.core.job import Job
from repro.core.packing import fingerprint_packed, pack_jobs, unpack_jobs
from repro.experiments.engine import fingerprint_jobs

#: Cells in the paper's grid.
N_CELLS = 13
N_JOBS = 5_000


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
    """Dispatch bytes over a full grid: one digest per cell + one pack."""
    packed = pack_jobs(jobs)
    digest = fingerprint_packed(packed)
    store_per_cell = len(pickle.dumps(digest, protocol=pickle.HIGHEST_PROTOCOL))
    store_one_time = len(pickle.dumps(packed, protocol=pickle.HIGHEST_PROTOCOL))
    return {
        "store_bytes_per_cell": store_per_cell,
        "store_one_time_bytes": store_one_time,
        "store_grid_bytes": store_per_cell * N_CELLS + store_one_time,
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


def test_dispatch_payload_is_digest_sized():
    """A cell task carries the digest, never the stream: the per-cell
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
    completed); this measures one append including the fsync, so the
    engine's journaling overhead per 13-cell grid is roughly
    ``3 * 13 * journal_append_per_record``.
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


def _store_cell(digest):
    from repro.experiments.workload_store import resolve_worker_workload

    return len(resolve_worker_workload(digest))


def measure_pool_dispatch(jobs: list[Job], workers: int = 2) -> float:
    """Wall clock of a second grid's worth of no-op cells on a warm pool.

    The engine keeps one pool for all its grids, so what a grid costs in
    dispatch is what it costs on workers that already run: spool the new
    stream once, then per cell the digest out and the answer back, with
    one validated hydration per worker.  A first grid (another stream)
    forks and warms the workers outside the timed section.
    """
    from concurrent.futures import ProcessPoolExecutor

    from repro.experiments.backends.pool import pool_context
    from repro.experiments.workload_store import (
        WorkloadStore,
        init_worker,
        spool_workload,
    )

    store = WorkloadStore()
    streams = [jobs[: len(jobs) // 2], jobs]
    digests = [fingerprint_jobs(stream) for stream in streams]
    packed = [store.register(d, stream) for d, stream in zip(digests, streams)]

    with tempfile.TemporaryDirectory(prefix="repro-bench-pool-") as spool:
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=pool_context(),
            initializer=init_worker,
            initargs=(spool, None),
        ) as pool:
            spool_workload(spool, digests[0], packed[0])
            list(pool.map(_store_cell, [digests[0]] * N_CELLS))
            t0 = time.perf_counter()
            spool_workload(spool, digests[1], packed[1])
            counts = list(pool.map(_store_cell, [digests[1]] * N_CELLS))
            elapsed = time.perf_counter() - t0
    assert counts == [len(jobs)] * N_CELLS
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
