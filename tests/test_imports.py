"""What a process imports: the warm path loads only what it runs.

Every check runs in a fresh interpreter.  The suite itself imports
everything into one process, so an import-order bug (a registry filled by
a module nobody imported yet, a facade name that no longer resolves)
would pass here unnoticed without one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules a warm rerun never executes, so never imports.
NOT_ON_THE_WARM_PATH = (
    "repro.core.simulator",
    "repro.core.state",
    "repro.core.site",
    "repro.core.native",
    "repro.schedulers.disciplines",
    "repro.schedulers.smart",
    "repro.schedulers.psrs",
    "repro.scenarios",
    "repro.metrics.bounds",
    "repro.experiments.pool",
    "multiprocessing",
    "concurrent.futures",
    "socket",
    "csv",
    "numpy",
)

FACADES = (
    "repro",
    "repro.core",
    "repro.schedulers",
    "repro.workloads",
    "repro.metrics",
    "repro.analysis",
    "repro.experiments",
    "repro.experiments.backends",
)


def _python(code: str, *args: str, cwd: Path | None = None) -> str:
    """Run ``code`` in a fresh interpreter; return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


_LOADED = """
import json, sys
print(json.dumps([m for m in sys.argv[1:] if m in sys.modules]))
"""


def test_importing_the_cli_loads_no_simulation_stack():
    out = _python("import repro.experiments.cli" + _LOADED, *NOT_ON_THE_WARM_PATH)
    assert json.loads(out) == []


def test_warm_rerun_loads_no_simulation_stack(tmp_path):
    # Every recipe generator (CTC, probabilistic, randomized): a warm rerun
    # reads all three streams back from the workload memo, without numpy.
    argv = [
        "table3", "table4", "table5",
        "--scale", "30", "--cache-dir", str(tmp_path / "cache"),
    ]
    run = """
    import sys
    from repro.experiments import cli
    assert cli.main(sys.argv[1:]) == 0
    """
    _python(run, *argv)  # fills the cache
    events = tmp_path / "warm.jsonl"
    warm = argv + ["--workers", "2", "--events", str(events)]
    out = _python(
        """
        import json, sys
        from repro.experiments import cli
        code = cli.main(sys.argv[1:-1])
        names = json.loads(sys.argv[-1])
        print(json.dumps([code, [m for m in names if m in sys.modules]]))
        """,
        *warm,
        json.dumps(NOT_ON_THE_WARM_PATH),
    )
    code, loaded = json.loads(out.splitlines()[-1])
    assert code == 0
    assert loaded == []
    cells = [
        json.loads(line)
        for line in events.read_text().splitlines()
        if json.loads(line)["kind"] in ("cell-finished", "cache-hit")
    ]
    assert len(cells) == 78  # 13 cells x 2 regimes x 3 tables
    assert all(event["cached"] for event in cells)


def test_every_facade_name_resolves_and_is_listed():
    out = _python(
        """
        import importlib, json, sys
        problems = []
        for name in sys.argv[1:]:
            package = importlib.import_module(name)
            listed = dir(package)
            for public in package.__all__:
                if public not in listed:
                    problems.append(f"{name}.{public} missing from dir()")
                getattr(package, public)
            if hasattr(package, "no_such_name"):
                problems.append(f"{name}.no_such_name resolved")
        namespace = {}
        exec("from repro import *", namespace)
        import repro
        missing = sorted(set(repro.__all__) - set(namespace))
        print(json.dumps([problems, missing]))
        """,
        *FACADES,
    )
    assert json.loads(out) == [[], []]


def test_scenario_kinds_register_with_the_spec_module():
    out = _python(
        """
        from repro.scenarios.spec import ScenarioSpec
        spec = ScenarioSpec.from_dict({
            "seed": 7,
            "components": [
                {"kind": "failures", "mtbf": 40000.0, "recovery": "resubmit"}
            ],
        })
        print(type(spec.components[0]).__name__)
        """
    )
    assert out.strip() == "FailureModel"


def test_scheduler_registry_builds_every_paper_cell_on_first_use():
    out = _python(
        """
        import json, sys
        from repro.schedulers.registry import (
            build_scheduler, paper_configurations, registry_generation,
        )
        configs = list(paper_configurations())
        labels = [config.label for config in configs]
        registry_generation()
        classes = ("repro.schedulers.base", "repro.schedulers.disciplines",
                   "repro.schedulers.psrs", "repro.schedulers.smart")
        before = [m for m in classes if m in sys.modules]
        built = [build_scheduler(config, 256, weighted=True) for config in configs]
        names = [type(s).__name__ for s in built]
        print(json.dumps([len(configs), before, names, labels[-1]]))
        """
    )
    count, before, names, last_label = json.loads(out)
    assert count == 13
    assert before == []
    assert names == ["OrderedQueueScheduler"] * 13
    assert last_label == "Garey&Graham + Listscheduler"


def test_pool_start_imports_the_simulation_stack_before_forking():
    out = _python(
        """
        import sys
        from repro.experiments.pool import WorkerPool
        from repro.experiments.workload_store import WorkloadStore
        before = "repro.core.simulator" in sys.modules
        pool = WorkerPool(workers=1, store=WorkloadStore(), heartbeat_interval=None)
        try:
            print(before, "repro.core.simulator" in sys.modules)
        finally:
            pool.close()
        """
    )
    assert out.split() == ["False", "True"]
