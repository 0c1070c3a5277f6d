"""Bit-identity of the fast backend against the Python walks.

The backend picks only which queue walk runs — the compiled walks of
:mod:`repro.core.native` or the scalar Python walks — and the walks are an
*optimisation*, never an algorithm change: ``backend="numpy"`` must
reproduce ``backend="python"``'s
:class:`~repro.core.simulator.SimulationResult` bit for bit — same
schedules, same objectives in the last ulp, same resilience metrics — over

* every cell of the scheduler registry, in both objective regimes and
  with the per-decision trace (``collect_trace``) compared too,
* streams with queued and running cancellations,
* the estimate-limit kill policy (``cancel_over_limit``),
* failure traces under every recovery policy, and
* the columnar objective kernels the benchmark harness times
  (``ResultColumns`` reductions vs the scalar ``objectives`` loops).

Neither backend needs numpy: with its import blocked, ``"auto"`` still
selects the fast backend.  The CI ``vector-equivalence`` job runs this
file with ``REPRO_BACKEND=numpy`` and once more with ``=python``.
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


def full_signature(result, trace=None):
    """Everything a result carries that both backends must agree on, plus
    the decision-point trace when the run collected one."""
    fields = (
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
    if trace is None:
        return fields
    # One trace entry per decision point, on either backend.
    assert len(trace.queue_lengths) == len(trace.free_nodes) == result.decision_points
    return fields + (trace.queue_lengths, trace.free_nodes)


def run_both(make_scheduler, jobs, *, config=None, scenario=None):
    """Run oracle and fast path; assert full bit-identity, return the pair."""
    config = config or SimulationConfig()
    signatures = []
    results = []
    for backend in ("python", "numpy"):
        sim = Simulator(Machine(NODES), make_scheduler(), replace(config, backend=backend))
        result = sim.run(jobs, scenario=scenario)
        assert (sim.trace is not None) == config.collect_trace
        signatures.append(full_signature(result, sim.trace))
        results.append(result)
    assert signatures[1] == signatures[0]
    return results


#: Objective regime × simulation config of the registry sweep: both
#: regimes plain, and the unweighted one with the decision-point trace on.
_REGISTRY_RUNS = [
    pytest.param(False, SimulationConfig(), id="unweighted"),
    pytest.param(True, SimulationConfig(), id="weighted"),
    pytest.param(False, SimulationConfig(collect_trace=True), id="traced"),
]


@pytest.mark.parametrize("weighted,sim_config", _REGISTRY_RUNS)
@pytest.mark.parametrize("config", registered_configurations(), ids=lambda c: c.key)
def test_registry_cells_bit_identical(config, weighted, sim_config):
    jobs = make_jobs(150, seed=23, max_nodes=NODES, mean_gap=40.0)
    _, fast = run_both(
        lambda: build_scheduler(config, NODES, weighted=weighted),
        jobs,
        config=sim_config,
    )
    # The columnar objective kernels must equal the scalar loops exactly —
    # np.add.accumulate is sequential, so not a single ulp of drift.
    columns = vector.ResultColumns.from_schedule(fast.schedule)
    assert vector.average_response_time_columns(columns) == (
        average_response_time(fast.schedule)
    )
    assert vector.average_weighted_response_time_columns(columns) == (
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
    "recovery,sim_config",
    [
        *(
            pytest.param(spec, SimulationConfig(), id=spec)
            for spec in ("abandon", "resubmit", "checkpoint:interval=300.0,overhead=30.0")
        ),
        pytest.param("resubmit", SimulationConfig(collect_trace=True), id="resubmit-traced"),
    ],
)
def test_failure_injection_bit_identical(recovery, sim_config):
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
            lambda: build_scheduler(config, NODES),
            jobs,
            config=sim_config,
            scenario=scenario,
        )
        # The fast path's schedule passes the same independent audit.
        fast.schedule.validate(NODES, capacity=trace.capacity_steps(NODES))
        audit_run(fast, jobs, trace, NODES, recovery=recovery)


def test_simultaneous_submissions_bit_identical():
    """Equal submit times force the merged feed to break ties by job id."""
    jobs = make_jobs(80, seed=71, max_nodes=NODES, mean_gap=40.0)
    jobs = [replace(job, submit_time=float(int(job.submit_time) // 200 * 200)) for job in jobs]
    for config in registered_configurations():
        run_both(lambda: build_scheduler(config, NODES), jobs)


def test_numpy_simulation_does_not_import_numpy_ma():
    """A simulation imports no numpy at all — not ``numpy.ma`` (~35 ms),
    not numpy itself (~0.1 s), on either backend: every pool worker would
    pay it on its first cell."""
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
        "print('numpy' in sys.modules)\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), root]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


# -- backend resolution ----------------------------------------------------------


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


def test_fast_backend_needs_no_numpy(monkeypatch):
    """With the numpy import blocked, auto still selects the fast backend,
    an explicit numpy request is honoured, and the run equals the python
    one."""
    monkeypatch.delenv(vector.ENV_BACKEND, raising=False)
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert vector.resolve_backend("auto") == "numpy"
    assert vector.resolve_backend(None) == "numpy"
    assert vector.resolve_backend("numpy") == "numpy"
    jobs = make_jobs(80, seed=3, max_nodes=NODES, mean_gap=40.0)
    for config in registered_configurations():
        run_both(lambda: build_scheduler(config, NODES), jobs)


def test_simulator_env_backend(monkeypatch):
    """REPRO_BACKEND steers an unconfigured Simulator."""
    config = next(iter(registered_configurations()))
    monkeypatch.setenv(vector.ENV_BACKEND, "numpy")
    assert Simulator(Machine(NODES), build_scheduler(config, NODES)).backend == "numpy"
    monkeypatch.setenv(vector.ENV_BACKEND, "python")
    assert Simulator(Machine(NODES), build_scheduler(config, NODES)).backend == "python"


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
    assert list(rebuilt.end) == [item.end_time for item in result.schedule]
    assert list(rebuilt.area) == [item.job.area for item in result.schedule]
    assert vector.average_response_time_columns(rebuilt) == (
        average_response_time(result.schedule)
    )
