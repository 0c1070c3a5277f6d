"""The one command: run the workloads, check every cell, print every metric.

    PYTHONPATH=src python -m benchmarks.e2e.run [--seed 42] [--workload NAME]
        [--traced] [--quick] [--out FILE.json]

or, as ``BENCHMARK.json`` spells it, ``python3 benchmarks/e2e/run.py
--workload NAME --seed N --seconds S --trace 0|1``.

This process is the load generator.  It never imports the program: each
workload runs in a child process of its own, so no workload warms
another and ``ru_maxrss`` belongs to one workload.  A run times
``SETUP_SAMPLES`` set-ups, each a fresh child from spawn to
ready-to-measure, and lets the last of them go on to the measured
section, which repeats until ``--seconds`` have passed.  ``--trace 1`` is a
separate run that yields the per-layer numbers; end-to-end metrics are
only ever taken with tracing off.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when any
cell failed its check.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e import spec  # noqa: E402

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

#: Scratch space: inside the checkout, outside every tracked directory.
TMP_ROOT = ROOT / ".bench_e2e_tmp"


# -- the child: one workload, set up and measured -----------------------------


def _load_expected(path: Path, scale: str, workload: str) -> dict:
    """The pinned cells, or none at all: then every cell fails its check.

    A missing file, size or workload entry must not downgrade the pinned
    seed's exact check to a structural one.
    """
    try:
        with open(path) as handle:
            return json.load(handle)[scale][workload]
    except (OSError, ValueError, KeyError) as exc:
        print(f"no pinned expectations for {scale}/{workload} in {path}: {exc!r}",
              file=sys.stderr)
        return {}


def child_main(args: argparse.Namespace) -> int:
    from benchmarks.e2e import drivers

    workload = spec.WORKLOAD_BY_NAME[args.workload]
    driver = drivers.DRIVERS[workload.driver](workload, args.scale, Path(args.tmp))
    driver.setup(args.seed)
    result: dict = {"ready_at": time.monotonic()}
    if args.child == "regen":
        delivery = driver.oracle()
        failed = drivers.check(delivery, driver.cell_ids(), None)
        result.update(cells=delivery.cells, failed=failed)
    elif args.child == "measure":
        result.update(_measure(args, driver, drivers))
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


def _measure(args: argparse.Namespace, driver, drivers) -> dict:
    workload = driver.workload
    budget = args.seconds / 2 if args.trace else args.seconds
    walls: list[float] = []
    cpus: list[float] = []
    rates: list[float] = []
    event_samples: list[dict[str, float]] = []
    deliveries = []
    # A repetition that raises delivered nothing: every cell of it counts
    # as failed, the result line is still printed, and measuring stops.
    raised = False
    started = time.perf_counter()
    while not raised and (len(walls) < workload.min_reps
                          or time.perf_counter() - started < budget):
        t0 = time.perf_counter()
        try:
            wall, cpu, delivery = driver.rep()
        except Exception as exc:
            raised = True
            wall = cpu = time.perf_counter() - t0
            delivery = drivers.Delivery(problems=[("*", f"raised {exc!r}")])
        walls.append(wall)
        cpus.append(cpu)
        rates.append(delivery.jobs / wall)
        event_samples.append(delivery.events)
        deliveries.append(delivery)
    out: dict = {
        "reps": len(walls),
        "wall_s": walls,
        "cpu_s": cpus,
        "sim_jobs_per_s": rates,
        # Read before any traced repetition: the tracer's own records
        # would otherwise count as the program's memory.
        "peak_rss_mb": driver.peak_rss_mb(),
    }

    if args.trace:
        # Every per-layer value comes from one repetition, the fastest
        # traced one, so the layers' self times add up to its wall-clock.
        best: tuple | None = None
        traced = 0
        started = time.perf_counter()
        while best is None or (not raised and time.perf_counter() - started < budget):
            t0 = time.perf_counter()
            try:
                wall, delivery, metrics, tracer = driver.traced_rep()
            except Exception as exc:
                raised = True
                wall = time.perf_counter() - t0
                delivery = drivers.Delivery(problems=[("*", f"raised {exc!r}")])
                metrics, tracer = {}, drivers.tracing.Tracer()
            traced += 1
            deliveries.append(delivery)
            if best is None or wall < best[0]:
                best = (wall, metrics, tracer)
        traced_wall, layer, tracer = best
        fastest = walls.index(min(walls))
        # Set-up timers fill what the traced section did not see.
        for name, value in driver.setup_metrics.items():
            if not layer.get(name):
                layer[name] = value
        if workload.driver == "cli":
            # Cell times and the critical path of the 2-worker run come
            # from its own event stream, not from the 1-worker traced run.
            for name in ("engine.cell_sum_s", "engine.slowest_cell_s",
                         "engine.overhead_s", "engine.worker_busy_share"):
                layer[name] = event_samples[fastest].get(name, 0.0)
            layer["cli.process_s"] = walls[fastest]
        layer["trace.overhead_x"] = traced_wall / walls[fastest]
        out["per_layer"] = drivers.complete_layer_metrics(layer)
        out["traced_reps"] = traced
        out["trace"] = tracer.dump()

    ids = driver.cell_ids()
    if args.oracle:
        expected = {k: list(v) for k, v in driver.oracle().cells.items()}
        out["checked_against"] = "python-backend oracle"
    elif args.seed == spec.PINNED_SEED:
        expected = _load_expected(Path(args.expected), args.scale, workload.pinned_as)
        out["checked_against"] = "pinned expectations"
    else:
        expected = None
        out["checked_against"] = "structure"
    failures = [
        failure for delivery in deliveries
        for failure in drivers.check(delivery, ids, expected)
    ]
    out["attempted"] = len(ids) * len(deliveries)
    out["failed"] = len(failures)
    out["failures"] = failures[:20]
    return out


# -- the parent: spawn, collect, report ---------------------------------------


def _spawn(args: argparse.Namespace, workload: str, mode: str, scale: str) -> dict:
    """Run one child to completion and return its result with timings."""
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_ROOT))
    try:
        result_path = tmp / "result.json"
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--child", mode, "--workload", workload, "--scale", scale,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--expected", str(args.expected),
            "--tmp", str(tmp), "--result", str(result_path),
        ]
        if args.oracle:
            command.append("--oracle")
        spawned_at = time.monotonic()
        # The child's standard output goes to ours' standard error: the
        # last line of standard output must be this process's JSON.
        code = subprocess.run(command, cwd=ROOT, stdout=sys.stderr).returncode
        if code != 0:
            raise SystemExit(f"{workload}: {mode} child exited {code}")
        with open(result_path) as handle:
            result = json.load(handle)
        # time.monotonic() is CLOCK_MONOTONIC on Linux: one clock for
        # parent and child, so the difference spans the process spawn.
        result["setup_s"] = result["ready_at"] - spawned_at
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()  # leaves it when another run is using it
        except OSError:
            pass


def run_workload(args: argparse.Namespace, workload: str, scale: str) -> dict:
    """All samples of one workload, folded into named metrics."""
    setup_samples = []
    if not args.trace:
        extra = 0 if scale == "quick" else spec.SETUP_SAMPLES - 1
        setup_samples = [
            _spawn(args, workload, "setup", scale)["setup_s"] for _ in range(extra)
        ]
    result = _spawn(args, workload, "measure", scale)
    setup_samples.append(result["setup_s"])
    report = {
        "seed": args.seed,
        "scale": scale,
        "reps": result["reps"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        spec.FAILED_SHARE.name: result["failed"] / result["attempted"],
        "failures": result["failures"],
        "checked_against": result["checked_against"],
    }
    if args.trace:
        units = {m.name: m.unit for m in spec.PER_LAYER}
        report["traced_reps"] = result["traced_reps"]
        report["metrics"] = {
            name: {"value": value, "unit": units[name]}
            for name, value in result["per_layer"].items()
        }
        report["trace"] = result["trace"]
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            # A neighbour on the host can only slow a repetition down, so
            # the fastest one is the least disturbed (README, Steadiness).
            "wall_s": min(result["wall_s"]),
            "sim_jobs_per_s": max(result["sim_jobs_per_s"]),
            "cpu_s": min(result["cpu_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        report["metrics"] = {
            m.name: {"value": values[m.name], "unit": m.unit} for m in spec.END_TO_END
        }
        report["samples"] = {
            "setup_s": setup_samples,
            "wall_s": result["wall_s"],
            "cpu_s": result["cpu_s"],
        }
    return report


def _print_report(name: str, report: dict) -> None:
    kind = f"{report['traced_reps']} traced reps" if "traced_reps" in report else "untraced"
    print(f"== {name}: seed {report['seed']}, {report['scale']} size, "
          f"{report['reps']} reps, {kind}, checked against "
          f"{report['checked_against']} ==")
    for metric, entry in report["metrics"].items():
        print(f"  {metric:<38}{entry['value']:>16.6g} {entry['unit']}")
    print(f"  {spec.FAILED_SHARE.name:<38}{report['failed_share']:>16.6g} "
          f"{spec.FAILED_SHARE.unit} ({report['failed']}/{report['attempted']} cells)")
    for cell_id, reason in report["failures"]:
        print(f"  FAILED {cell_id}: {reason}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }), flush=True)


def host_fingerprint() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "nproc": os.cpu_count(),
        "cpu": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy,
    }


def regen_expected(args: argparse.Namespace, names: list[str]) -> int:
    """Pin seed 42's cells from the scalar python backend, both sizes."""
    args.seed = spec.PINNED_SEED
    try:
        with open(args.expected) as handle:
            pinned = json.load(handle)
    except OSError:
        pinned = {}
    for scale in ("bench", "quick"):
        done = pinned.setdefault(scale, {})
        fresh = set()
        for name in names:
            key = spec.WORKLOAD_BY_NAME[name].pinned_as
            if key in fresh:
                continue  # the other sweep just pinned the shared cells
            fresh.add(key)
            result = _spawn(args, name, "regen", scale)
            if result["failed"]:
                print(f"{name} ({scale}): oracle run failed: {result['failed'][:3]}",
                      file=sys.stderr)
                return 1
            done[key] = result["cells"]
            print(f"pinned {len(result['cells'])} cells of {key} ({scale})")
    # One cell per line keeps a re-pin reviewable as a diff.
    lines = []
    for scale in sorted(pinned):
        groups = []
        for key in sorted(pinned[scale]):
            cells = ",\n".join(
                f"   {json.dumps(cell)}: {json.dumps(triple)}"
                for cell, triple in sorted(pinned[scale][key].items())
            )
            groups.append(f"  {json.dumps(key)}: {{\n{cells}\n  }}")
        lines.append(f" {json.dumps(scale)}: {{\n" + ",\n".join(groups) + "\n }")
    with open(args.expected, "w") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOAD_BY_NAME),
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=spec.PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measure for this long (default {spec.RUN_SECONDS}; 1 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, printing the per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--quick", dest="scale", action="store_const", const="quick",
                        help=f"every job count divided by {spec.QUICK_DIVISOR}: a smoke run")
    parser.add_argument("--scale", choices=("bench", "quick"), help=argparse.SUPPRESS)
    parser.set_defaults(scale="bench")
    parser.add_argument("--out", type=Path, help="write every sample, metric and span here")
    parser.add_argument("--expected", type=Path, default=EXPECTED,
                        help="pinned expectations (default: expected.json beside this file)")
    parser.add_argument("--oracle", action="store_true",
                        help="check each cell against a python-backend rerun, outside the timed section")
    parser.add_argument("--regen-expected", action="store_true",
                        help="rewrite the pinned expectations from the python backend")
    parser.add_argument("--print-manifest", action="store_true",
                        help="print the BENCHMARK.json these tables declare")
    parser.add_argument("--child", choices=("setup", "measure", "regen"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--tmp", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1 if args.scale == "quick" else spec.RUN_SECONDS
    args.expected = args.expected.resolve()  # children run from the root

    if args.print_manifest:
        print(json.dumps(spec.manifest(), indent=2))
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)

    names = [args.workload] if args.workload else [w.name for w in spec.WORKLOADS]
    if args.regen_expected:
        return regen_expected(args, names)
    reports = {}
    for name in names:
        reports[name] = run_workload(args, name, args.scale)
        _print_report(name, reports[name])
    if args.out is not None:
        with open(args.out, "w") as handle:
            json.dump({
                "host": host_fingerprint(),
                "traced": bool(args.trace),
                "seconds": args.seconds,
                "workloads": reports,
            }, handle, indent=1)
    return 1 if any(r["failed"] for r in reports.values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
