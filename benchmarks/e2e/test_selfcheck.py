"""Self-check of the benchmark itself.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Not part of the tier-1 ``testpaths``: it spawns the runner a few times
(about 40 s in all).
"""

from __future__ import annotations

import argparse
import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import compare, drivers, run, spec, tracing

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py")]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([*RUN, *args], cwd=ROOT, capture_output=True, text=True)


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def test_committed_manifest_is_the_tables() -> None:
    assert _declared() == spec.manifest()


def test_names_are_plain_and_unique() -> None:
    declared = _declared()
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
             for entry in declared[section]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in declared["workloads"])


@pytest.mark.parametrize("traced, section", [(False, "end_to_end"), (True, "per_layer")])
def test_quick_run_reports_exactly_what_is_declared(tmp_path, traced, section) -> None:
    out = tmp_path / "out.json"
    done = _run("--quick", "--out", str(out), *(["--traced"] if traced else []))
    assert done.returncode == 0, done.stderr
    declared = _declared()
    with open(out) as handle:
        result = json.load(handle)
    assert list(result["workloads"]) == [w["name"] for w in declared["workloads"]]
    wanted = [m["name"] for m in declared[section]]
    for report in result["workloads"].values():
        assert list(report["metrics"]) == wanted
        assert report["failed"] == 0 and report["attempted"] >= 1
        assert report["checked_against"] == "pinned expectations"
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and list(last["metrics"]) == wanted


def test_a_wrong_pinned_value_fails_the_run(tmp_path) -> None:
    with open(ROOT / "benchmarks" / "e2e" / "expected.json") as handle:
        pinned = json.load(handle)
    pinned["quick"]["ctc_conservative"]["fcfs/conservative"][2] += 1
    corrupt = tmp_path / "expected.json"
    corrupt.write_text(json.dumps(pinned))
    out = tmp_path / "out.json"
    done = _run("--quick", "--workload", "ctc_conservative",
                "--expected", str(corrupt), "--out", str(out))
    assert done.returncode != 0
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] > 0
    with open(out) as handle:
        assert json.load(handle)["workloads"]["ctc_conservative"]["failed_share"] > 0


def test_a_missing_pinned_entry_fails_every_cell(tmp_path) -> None:
    with open(ROOT / "benchmarks" / "e2e" / "expected.json") as handle:
        pinned = json.load(handle)
    del pinned["quick"]["ctc_conservative"]
    gapped = tmp_path / "expected.json"
    gapped.write_text(json.dumps(pinned))
    for expected in (gapped, tmp_path / "absent.json"):
        done = _run("--quick", "--workload", "ctc_conservative",
                    "--expected", str(expected))
        assert done.returncode != 0
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert last["correct"] is False
        assert last["failed"] == last["attempted"] > 0


def test_a_repetition_that_raises_counts_as_failed_cells() -> None:
    class Raising:
        workload = spec.WORKLOAD_BY_NAME["ctc_full_easy"]

        def rep(self):
            raise RuntimeError("boom")

        def peak_rss_mb(self) -> float:
            return 1.0

        def cell_ids(self) -> list[str]:
            return list(self.workload.cells)

    args = argparse.Namespace(seconds=60.0, trace=0, oracle=False, seed=7)
    out = run._measure(args, Raising(), drivers)
    assert out["reps"] == 1  # measuring stops at the raise
    assert out["failed"] == out["attempted"] == len(Raising.workload.cells)
    assert "boom" in out["failures"][0][1]


def _result(seconds: float = 15, **workloads: dict) -> dict:
    return {"seconds": seconds, "workloads": workloads}


def _report(scale: str = "bench", seed: int = 42, failed: int = 0) -> dict:
    return {
        "scale": scale, "seed": seed, "failed": failed, "attempted": 3,
        "metrics": {m.name: {"value": 1.0, "unit": m.unit} for m in spec.END_TO_END},
    }


def test_compare_flags_lost_workloads_and_refuses_unlike_runs() -> None:
    both = _result(ctc_full_easy=_report(), ctc_disturbed=_report())
    assert compare.comparable(both, both) == []
    assert compare.compare(both, copy.deepcopy(both)) == 0
    assert compare.compare(both, _result(ctc_full_easy=_report())) == 1
    assert compare.compare(both, _result(ctc_full_easy=_report(failed=1),
                                         ctc_disturbed=_report())) == 1
    assert compare.comparable(both, _result(seconds=1, ctc_full_easy=_report()))
    assert compare.comparable(both, _result(ctc_full_easy=_report(scale="quick")))
    assert compare.comparable(both, _result(ctc_full_easy=_report(seed=7)))


def test_tracing_wrappers_are_removed_after_a_traced_run(tmp_path) -> None:
    workload = spec.WORKLOAD_BY_NAME["ctc_conservative"]
    driver = drivers.EngineDriver(workload, "quick", tmp_path)
    driver.setup(spec.PINNED_SEED)
    assert tracing.still_wrapped() == []
    with tracing.installed(tracing.Tracer()):
        assert tracing.still_wrapped()
    _wall, delivery, metrics, _tracer = driver.traced_rep()
    assert tracing.still_wrapped() == []
    assert not delivery.problems
    assert metrics["profile.allocate_calls"] > 0
