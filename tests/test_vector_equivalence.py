"""Bit-identity of the numpy backend against the pure-Python oracle.

The vectorised kernels of :mod:`repro.core.vector` are an *optimisation*,
never an algorithm change: ``backend="numpy"`` must reproduce the Python
oracle's :class:`~repro.core.simulator.SimulationResult` bit for bit —
same schedules, same objectives in the last ulp, same resilience metrics —
over

* every cell of the scheduler registry, in both objective regimes,
* streams with queued and running cancellations,
* the estimate-limit kill policy (``cancel_over_limit``),
* failure traces under every recovery policy, and
* the columnar objective kernels (``ResultColumns`` reductions vs the
  scalar ``objectives`` loops).

It must also degrade cleanly: with the numpy import blocked, ``"auto"``
falls back to the Python backend and an explicit ``"numpy"`` request
raises.  The CI ``vector-equivalence`` job runs this file with
``REPRO_BACKEND=numpy`` forced so the fast path cannot silently fall back.
"""

import sys
from dataclasses import replace

import pytest

from repro.core import vector
from repro.core.machine import Machine
from repro.core.simulator import (
    Cancellation,
    ScenarioInputs,
    SimulationConfig,
    Simulator,
)
from repro.failures import audit_run, mtbf_trace
from repro.metrics.objectives import (
    average_response_time,
    average_weighted_response_time,
)
from repro.schedulers.registry import build_scheduler, registered_configurations
from tests.conftest import make_jobs

NODES = 64


def signature(result):
    return [
        (item.job.job_id, item.start_time, item.end_time, item.cancelled)
        for item in result.schedule
    ]


def full_signature(result):
    return (
        signature(result),
        result.decision_points,
        result.max_queue_length,
        result.end_time,
        result.cancelled_queued,
        result.killed_running,
        result.failure_killed,
        [
            (item.job.job_id, item.start_time, item.end_time)
            for item in result.interrupted
        ],
        result.lost_node_seconds,
        result.wasted_node_seconds,
        result.requeue_delay,
    )


def run_both(make_scheduler, jobs, *, config=None, scenario=None):
    """Run oracle and fast path; assert full bit-identity, return the pair."""
    config = config or SimulationConfig()
    oracle = Simulator(
        Machine(NODES), make_scheduler(), replace(config, backend="python")
    ).run(jobs, scenario=scenario)
    fast = Simulator(
        Machine(NODES), make_scheduler(), replace(config, backend="numpy")
    ).run(jobs, scenario=scenario)
    assert full_signature(fast) == full_signature(oracle)
    assert oracle.columns is None
    assert fast.columns is not None and len(fast.columns) == len(fast.schedule)
    return oracle, fast


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("config", registered_configurations(), ids=lambda c: c.key)
def test_registry_cells_bit_identical(config, weighted):
    jobs = make_jobs(150, seed=23, max_nodes=NODES, mean_gap=40.0)
    _, fast = run_both(
        lambda: build_scheduler(config, NODES, weighted=weighted), jobs
    )
    # The columnar objective kernels must equal the scalar loops exactly —
    # np.add.accumulate is sequential, so not a single ulp of drift.
    assert vector.average_response_time_columns(fast.columns) == (
        average_response_time(fast.schedule)
    )
    assert vector.average_weighted_response_time_columns(fast.columns) == (
        average_weighted_response_time(fast.schedule)
    )


def test_cancellation_stream_bit_identical():
    jobs = make_jobs(120, seed=41, max_nodes=NODES, mean_gap=40.0)
    cancellations = [
        Cancellation(time=job.submit_time + 90.0, job_id=job.job_id)
        for job in jobs
        if job.job_id % 7 == 0
    ]
    scenario = ScenarioInputs(cancellations=cancellations)
    for config in registered_configurations():
        run_both(
            lambda: build_scheduler(config, NODES), jobs, scenario=scenario
        )


def test_over_limit_kills_bit_identical():
    jobs = make_jobs(100, seed=43, max_nodes=NODES, mean_gap=40.0)
    jobs = [
        replace(job, estimate=job.runtime * 0.6) if job.job_id % 5 == 0 else job
        for job in jobs
    ]
    config = SimulationConfig(cancel_over_limit=True)
    for scheduler_config in registered_configurations():
        run_both(
            lambda: build_scheduler(scheduler_config, NODES), jobs, config=config
        )


@pytest.mark.parametrize(
    "recovery", ["abandon", "resubmit", "checkpoint:interval=300.0,overhead=30.0"]
)
def test_failure_injection_bit_identical(recovery):
    jobs = make_jobs(120, seed=53, max_nodes=NODES, mean_gap=40.0)
    trace = mtbf_trace(
        total_nodes=NODES,
        horizon=max(j.submit_time for j in jobs) + 8_000.0,
        mtbf=15_000.0,
        mttr=1_200.0,
        seed=59,
        max_nodes_per_failure=4,
    )
    assert len(trace) > 0
    scenario = ScenarioInputs(failures=trace, recovery=recovery)
    for config in registered_configurations():
        _, fast = run_both(
            lambda: build_scheduler(config, NODES), jobs, scenario=scenario
        )
        # The fast path's schedule passes the same independent audit.
        fast.schedule.validate(NODES, capacity=trace.capacity_steps(NODES))
        audit_run(fast, jobs, trace, NODES, recovery=recovery)


def test_simultaneous_submissions_bit_identical():
    """Equal submit times force the merged feed to break ties by job id —
    the exact case where a sloppy lexsort would diverge from the oracle."""
    jobs = make_jobs(80, seed=71, max_nodes=NODES, mean_gap=40.0)
    jobs = [replace(job, submit_time=float(int(job.submit_time) // 200 * 200)) for job in jobs]
    for config in registered_configurations():
        run_both(lambda: build_scheduler(config, NODES), jobs)


def test_sorted_stream_flags_duplicate_ids():
    jobs = make_jobs(12, seed=5, max_nodes=NODES)
    assert vector.sorted_stream(jobs)[2] is True
    assert vector.sorted_stream(reversed(jobs))[2] is True
    clash = [*jobs, replace(jobs[3], submit_time=jobs[3].submit_time + 1.0)]
    assert vector.sorted_stream(clash)[2] is False
    assert vector.sorted_stream(jobs[:1])[2] is True


def test_numpy_simulation_does_not_import_numpy_ma():
    """``numpy.ma`` costs ~35 ms to import; every pool worker would pay it
    on its first cell (the driver never simulates, so no fork inherits it)."""
    import os
    import subprocess

    code = (
        "import sys\n"
        "from repro.core.simulator import simulate\n"
        "from repro.schedulers.registry import SchedulerConfig, build_scheduler\n"
        "from tests.conftest import make_jobs\n"
        "for column in ('list', 'conservative', 'easy'):\n"
        "    scheduler = build_scheduler(SchedulerConfig('psrs', column), 64)\n"
        "    result = simulate(make_jobs(60, seed=3, max_nodes=64), scheduler, 64,\n"
        "                      backend='numpy')\n"
        "    assert len(result.schedule) == 60\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), root]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


# -- backend resolution and the no-numpy fallback --------------------------------


def test_resolve_backend_env_override(monkeypatch):
    monkeypatch.setenv(vector.ENV_BACKEND, "python")
    assert vector.resolve_backend(None) == "python"
    monkeypatch.setenv(vector.ENV_BACKEND, "numpy")
    assert vector.resolve_backend(None) == "numpy"
    # An explicit argument beats the environment.
    assert vector.resolve_backend("python") == "python"
    monkeypatch.setenv(vector.ENV_BACKEND, "bogus")
    with pytest.raises(ValueError, match="unknown simulation backend"):
        vector.resolve_backend(None)


def test_resolve_backend_rejects_unknown():
    with pytest.raises(ValueError, match="unknown simulation backend"):
        vector.resolve_backend("fortran")


def test_no_numpy_fallback(monkeypatch):
    """With the numpy import blocked, auto falls back to python and an
    explicit numpy request fails loudly instead of silently degrading."""
    monkeypatch.delenv(vector.ENV_BACKEND, raising=False)
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert vector.numpy_or_none() is None
    assert vector.available_backends() == ("python",)
    assert vector.resolve_backend("auto") == "python"
    assert vector.resolve_backend(None) == "python"
    with pytest.raises(RuntimeError, match="numpy is not importable"):
        vector.resolve_backend("numpy")
    # A simulation still runs end to end on the fallback.
    jobs = make_jobs(40, seed=3, max_nodes=NODES, mean_gap=40.0)
    config = next(iter(registered_configurations()))
    result = Simulator(
        Machine(NODES),
        build_scheduler(config, NODES),
        SimulationConfig(backend="auto"),
    ).run(jobs)
    assert result.columns is None
    assert len(result.schedule) == len(jobs)


def test_simulator_env_backend(monkeypatch):
    """REPRO_BACKEND steers an unconfigured Simulator."""
    monkeypatch.setenv(vector.ENV_BACKEND, "numpy")
    jobs = make_jobs(40, seed=5, max_nodes=NODES, mean_gap=40.0)
    config = next(iter(registered_configurations()))
    result = Simulator(Machine(NODES), build_scheduler(config, NODES)).run(jobs)
    assert result.columns is not None
    monkeypatch.setenv(vector.ENV_BACKEND, "python")
    result = Simulator(Machine(NODES), build_scheduler(config, NODES)).run(jobs)
    assert result.columns is None


# -- columnar metric kernels ------------------------------------------------------


def test_exact_sum_matches_python_sum():
    import random

    rng = random.Random(11)
    values = [rng.uniform(-1e9, 1e9) for _ in range(10_001)]
    assert vector.exact_sum(values) == sum(values)
    assert vector.exact_sum([]) == 0.0


def test_result_columns_from_schedule_matches_run_columns():
    jobs = make_jobs(60, seed=13, max_nodes=NODES, mean_gap=40.0)
    config = next(iter(registered_configurations()))
    result = Simulator(
        Machine(NODES), build_scheduler(config, NODES), backend="numpy"
    ).run(jobs)
    rebuilt = vector.ResultColumns.from_schedule(result.schedule)
    assert rebuilt.views()["end"].tolist() == result.columns.views()["end"].tolist()
    assert vector.average_response_time_columns(rebuilt) == (
        average_response_time(result.schedule)
    )
