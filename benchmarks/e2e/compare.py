"""Gate one result file against another.

    python benchmarks/e2e/compare.py A.json B.json [--record]

``A`` is the base (the parent commit's ``run.py --out`` file), ``B`` the
change.  For every workload and end-to-end metric this prints both
values, B as a ratio of A, and the bound.  The exit code is 1 when B is
worse than A by more than the metric's bound anywhere, when either file
has a failed cell, or when a workload is in one file only.  Files taken
with different ``--seconds``, or a workload taken at different sizes or
seeds, are not compared at all (exit code 2).

``--record`` appends B's metrics to ``history.jsonl`` beside this file,
with the commit and the host they were measured on, so the baseline is
a trajectory and not a snapshot.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import spec  # noqa: E402

HISTORY = Path(__file__).resolve().parent / "history.jsonl"


def _load(path: Path) -> dict:
    with open(path) as handle:
        data = json.load(handle)
    if data.get("traced"):
        raise SystemExit(f"{path}: a traced run carries no end-to-end metrics")
    return data


def worsening(metric: spec.Metric, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    if metric.better == "lower":
        return (new - base) / base
    return (base - new) / base


def comparable(a: dict, b: dict) -> list[str]:
    """Why A and B do not measure the same thing; empty when they do."""
    reasons = []
    if a["seconds"] != b["seconds"]:
        reasons.append(f"seconds: A {a['seconds']}, B {b['seconds']}")
    for name in sorted(a["workloads"].keys() & b["workloads"].keys()):
        for key in ("scale", "seed"):
            va, vb = a["workloads"][name][key], b["workloads"][name][key]
            if va != vb:
                reasons.append(f"{name} {key}: A {va}, B {vb}")
    return reasons


def compare(a: dict, b: dict) -> int:
    bad = 0
    print(f"{'workload':<18}{'metric':<16}{'A':>12}{'B':>12}  {'B/A':>8}  bound  verdict")
    for name in (w.name for w in spec.WORKLOADS):
        sides = [label for label, side in (("A", a), ("B", b)) if name in side["workloads"]]
        if not sides:
            continue
        if len(sides) == 1:
            bad += 1
            print(f"{name:<18}in {sides[0]} only  MISSING")
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in spec.END_TO_END:
            va = wa["metrics"][metric.name]["value"]
            vb = wb["metrics"][metric.name]["value"]
            worse = worsening(metric, va, vb)
            verdict = "ok"
            if worse > metric.bound:
                verdict = "REGRESSION"
                bad += 1
            print(f"{name:<18}{metric.name:<16}{va:>12.5g}{vb:>12.5g}  "
                  f"{vb / va:>7.3f}x  {metric.bound:<5}  {verdict} "
                  f"({metric.unit}, {metric.better} is better)")
        for label, side in (("A", wa), ("B", wb)):
            if side["failed"]:
                bad += 1
                print(f"{name:<18}{spec.FAILED_SHARE.name:<16} {label}: {side['failed']}/"
                      f"{side['attempted']} cells failed  FAILED")
    return bad


def _git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else ""


def record(result: dict) -> None:
    entry = {
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": _git("rev-parse", "HEAD") or None,
        "dirty": bool(_git("status", "--porcelain")),
        "host": result["host"],
        "seconds": result["seconds"],
        "metrics": {
            name: {
                **{m: value["value"] for m, value in report["metrics"].items()},
                "failed_share": report["failed_share"],
                "seed": report["seed"],
                "reps": report["reps"],
            }
            for name, report in result["workloads"].items()
        },
    }
    with open(HISTORY, "a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"recorded {entry['commit'] or 'uncommitted tree'} in {HISTORY}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="A: run.py --out file of the parent")
    parser.add_argument("change", type=Path, help="B: run.py --out file of the change")
    parser.add_argument("--record", action="store_true",
                        help="append B's metrics to history.jsonl")
    args = parser.parse_args(argv)
    a, b = _load(args.base), _load(args.change)
    reasons = comparable(a, b)
    if reasons:
        print("not comparable: " + "; ".join(reasons), file=sys.stderr)
        return 2
    bad = compare(a, b)
    if args.record:
        record(b)
    print("no metric worse than its bound, no failed cell" if not bad
          else f"{bad} finding(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
