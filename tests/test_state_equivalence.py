"""Mechanical-equivalence property: incremental state vs rebuild-per-decision.

The whole point of :class:`~repro.core.state.SchedulingState` is that it is
an *optimisation*, not an algorithm change: every paper configuration must
produce bit-identical schedules whether the simulator maintains incremental
state (``SimulationConfig(incremental_state=True)``, the default) or hands
schedulers fresh ``from_running`` rebuilds (``incremental_state=False``,
the reference oracle).  This file asserts exactly that, over

* every cell of the scheduler registry, in both objective regimes,
* slack backfilling (the continuum between the paper's two variants),
* drained schedules with whole-machine reservations,
* streams with queued and running cancellations,
* the estimate-limit kill policy (``cancel_over_limit``),
* the persistent profile being built on first read, whenever that comes
  (never, in a list cell; under outages and overruns, when forced), and
* conservative backfilling's reservation plan, which outlives the decision
  point only on the incremental side: every order, a bounded depth and
  both discipline wrappers, under every kind of event that must (or must
  not) invalidate the plan,

plus a verified pass (``verify_state=1``) that cross-checks every snapshot
against a rebuild while simulating — the CI ``verify-state`` job runs this
file with ``REPRO_VERIFY_STATE=1`` so the in-simulation checks are doubled.
"""

from dataclasses import replace

import pytest

from repro.core.job import Job
from repro.core.machine import Machine
from repro.core.profile import AvailabilityProfile
from repro.core.simulator import (
    Cancellation,
    ScenarioInputs,
    SimulationConfig,
    Simulator,
)
from repro.core.state import SchedulingState
from repro.failures import FailureTrace, audit_run, mtbf_trace
from repro.scenarios import ScenarioSpec
from repro.schedulers.admission import UserLimitDiscipline
from repro.schedulers.base import OrderedQueueScheduler, SubmitOrderPolicy
from repro.schedulers.disciplines import ConservativeBackfill
from repro.schedulers.drain import DrainingScheduler, Reservation
from repro.schedulers.registry import (
    SchedulerConfig,
    build_scheduler,
    registered_configurations,
)
from repro.schedulers.slack import SlackBackfill
from repro.workloads import ctc_like_workload
from repro.workloads.transforms import cap_nodes
from tests.conftest import make_jobs

NODES = 64


def signature(result):
    return [
        (item.job.job_id, item.start_time, item.end_time, item.cancelled)
        for item in result.schedule
    ]


REBUILD = SimulationConfig(incremental_state=False)


def assert_equivalent(
    make_scheduler, jobs, *, nodes=NODES, config=SimulationConfig(), scenario=None
):
    # verify_state is left at None so the incremental run picks up the
    # REPRO_VERIFY_STATE cadence — the CI verify-state job sets it to 1.
    incremental = Simulator(Machine(nodes), make_scheduler(), config).run(
        jobs, scenario=scenario
    )
    reference = Simulator(
        Machine(nodes), make_scheduler(), replace(config, incremental_state=False)
    ).run(jobs, scenario=scenario)
    assert signature(incremental) == signature(reference)
    assert incremental.cancelled_queued == reference.cancelled_queued
    assert incremental.killed_running == reference.killed_running
    return incremental


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize(
    "config", registered_configurations(), ids=lambda c: c.key
)
def test_registry_cells_bit_identical(config, weighted):
    jobs = make_jobs(150, seed=23, max_nodes=NODES, mean_gap=40.0)
    assert_equivalent(
        lambda: build_scheduler(config, NODES, weighted=weighted), jobs
    )


def test_slack_backfill_bit_identical():
    jobs = make_jobs(120, seed=31, max_nodes=NODES, mean_gap=40.0)
    for factor in (0.0, 1.0, 5.0):
        assert_equivalent(
            lambda: OrderedQueueScheduler(
                SubmitOrderPolicy(), SlackBackfill(factor), name="slack"
            ),
            jobs,
        )


def test_drained_schedule_bit_identical():
    jobs = make_jobs(100, seed=37, max_nodes=NODES, mean_gap=40.0)
    horizon = max(j.submit_time for j in jobs)
    reservations = [
        Reservation(horizon * 0.25, horizon * 0.25 + 600.0),
        Reservation(horizon * 0.75, horizon * 0.75 + 600.0),
    ]
    assert_equivalent(
        lambda: DrainingScheduler(
            SubmitOrderPolicy(), SlackBackfill(1.0), reservations
        ),
        jobs,
    )


def test_cancellation_stream_bit_identical():
    jobs = make_jobs(120, seed=41, max_nodes=NODES, mean_gap=40.0)
    # Withdraw every 7th job shortly after submission (some will still be
    # queued, some already running, some already done — all three races).
    cancellations = [
        Cancellation(time=job.submit_time + 90.0, job_id=job.job_id)
        for job in jobs
        if job.job_id % 7 == 0
    ]
    scenario = ScenarioInputs(cancellations=cancellations)
    for config in registered_configurations():
        assert_equivalent(
            lambda: build_scheduler(config, NODES), jobs, scenario=scenario
        )


def test_over_limit_kills_bit_identical():
    jobs = make_jobs(100, seed=43, max_nodes=NODES, mean_gap=40.0)
    # Shrink some estimates below the runtime so the limit policy fires.
    jobs = [
        replace(job, estimate=job.runtime * 0.6)
        if job.job_id % 5 == 0
        else job
        for job in jobs
    ]
    for config in registered_configurations():
        assert_equivalent(
            lambda: build_scheduler(config, NODES),
            jobs,
            config=SimulationConfig(cancel_over_limit=True),
        )


@pytest.mark.parametrize(
    "config", registered_configurations(), ids=lambda c: c.key
)
def test_empty_failure_trace_bit_identical_to_no_failures(config):
    """Injecting an *empty* trace must not perturb a single bit: the failure
    machinery has to stay fully dormant until an event actually exists."""
    jobs = make_jobs(150, seed=23, max_nodes=NODES, mean_gap=40.0)
    plain = Simulator(Machine(NODES), build_scheduler(config, NODES)).run(jobs)
    injected = Simulator(Machine(NODES), build_scheduler(config, NODES)).run(
        jobs,
        scenario=ScenarioInputs(
            failures=FailureTrace(), recovery="checkpoint:interval=60,overhead=5"
        ),
    )
    assert signature(injected) == signature(plain)
    assert injected.decision_points == plain.decision_points
    assert injected.failure_killed == ()
    assert injected.interrupted == ()
    assert injected.lost_node_seconds == 0.0
    assert injected.wasted_node_seconds == 0.0


def _failure_signature(result):
    return (
        signature(result),
        result.failure_killed,
        [
            (item.job.job_id, item.start_time, item.end_time)
            for item in result.interrupted
        ],
        result.wasted_node_seconds,
        result.requeue_delay,
    )


@pytest.mark.parametrize(
    "recovery", ["abandon", "resubmit", "checkpoint:interval=300.0,overhead=30.0"]
)
def test_failure_injection_bit_identical(recovery):
    """With failures injected, the incremental state (outage reservations and
    all) still reproduces the rebuild oracle bit for bit, and every run
    passes the independent resilience audit."""
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
        incremental = Simulator(Machine(NODES), build_scheduler(config, NODES)).run(
            jobs, scenario=scenario
        )
        reference = Simulator(
            Machine(NODES), build_scheduler(config, NODES), REBUILD
        ).run(jobs, scenario=scenario)
        assert _failure_signature(incremental) == _failure_signature(reference), (
            config.key
        )
        incremental.schedule.validate(NODES, capacity=trace.capacity_steps(NODES))
        audit_run(incremental, jobs, trace, NODES, recovery=recovery)


def test_verified_run_with_failures_stays_clean():
    """Snapshot-by-snapshot verification of the incremental state holds while
    outage reservations come and go."""
    jobs = make_jobs(100, seed=61, max_nodes=NODES, mean_gap=40.0)
    trace = mtbf_trace(
        total_nodes=NODES,
        horizon=max(j.submit_time for j in jobs) + 8_000.0,
        mtbf=20_000.0,
        mttr=1_500.0,
        seed=67,
        max_nodes_per_failure=4,
    )
    assert len(trace) > 0
    for config in registered_configurations():
        result = Simulator(
            Machine(NODES),
            build_scheduler(config, NODES),
            SimulationConfig(verify_state=1),
        ).run(jobs, scenario=ScenarioInputs(failures=trace, recovery="resubmit"))
        audit_run(result, jobs, trace, NODES, recovery="resubmit")


def test_verified_run_stays_clean():
    """Every snapshot cross-checked in-simulation: no divergence, ever."""
    jobs = make_jobs(150, seed=47, max_nodes=NODES, mean_gap=40.0)
    for config in registered_configurations():
        result = Simulator(
            Machine(NODES),
            build_scheduler(config, NODES),
            SimulationConfig(verify_state=1),
        ).run(jobs)
        reference = Simulator(
            Machine(NODES), build_scheduler(config, NODES), REBUILD
        ).run(jobs)
        assert signature(result) == signature(reference), config.key


# -- the persistent profile is built on first read --------------------------------
#
# The benchmark's disturbed scenario (node failures with resubmit, 5 %
# cancellations) over a CTC-like prefix, with some estimates shrunk below
# the runtime so jobs overrun while outages are active.

_DISTURBED = ScenarioSpec.from_dict(
    {
        "seed": 7,
        "components": [
            {"kind": "failures", "mtbf": 40_000.0, "mttr": 3600.0,
             "recovery": "resubmit"},
            {"kind": "cancellations", "fraction": 0.05},
        ],
    }
)  # fmt: skip
_CTC_NODES = 256


def _disturbed_inputs():
    jobs = cap_nodes(ctc_like_workload(n_jobs=250, seed=42), _CTC_NODES)
    jobs = [
        replace(job, estimate=job.runtime * 0.5) if job.job_id % 9 == 0 else job
        for job in jobs
    ]
    compiled = _DISTURBED.compile(jobs)
    return list(compiled.jobs), compiled.inputs


def _run_signature(result):
    return (
        _failure_signature(result),
        result.cancelled_queued,
        result.killed_running,
        result.decision_points,
        result.max_queue_length,
        result.profile_deltas,
        result.profile_snapshots,
    )


def _run_ctc_cell(key, jobs, inputs, config=SimulationConfig(), backend=None):
    scheduler = build_scheduler(SchedulerConfig(*key.split("/")), _CTC_NODES)
    return Simulator(Machine(_CTC_NODES), scheduler, config, backend=backend).run(
        jobs, scenario=inputs
    )


@pytest.mark.parametrize("backend", ["python", "numpy"])
@pytest.mark.parametrize("key", ["fcfs/list", "gg/list"])
def test_list_cell_never_builds_a_profile(key, backend, monkeypatch):
    """No discipline of a list cell reads the profile, so none is ever
    built — while the state counts its deltas and snapshots exactly as a
    state that owned one from the start."""
    jobs, inputs = _disturbed_inputs()
    built = []
    rebuild = SchedulingState._rebuild
    monkeypatch.setattr(
        SchedulingState,
        "_rebuild",
        lambda self, skip=0: built.append(self.now) or rebuild(self, skip),
    )
    lazy = _run_ctc_cell(key, jobs, inputs, backend=backend)
    assert built == []
    # The scenario bites: failure kills and user withdrawals both happen.
    assert lazy.failure_killed and (lazy.cancelled_queued or lazy.killed_running)

    init = SchedulingState.__init__

    def eager_init(self, total_nodes, *, origin=0.0, verify_every=0):
        init(self, total_nodes, origin=origin, verify_every=verify_every)
        self.profile = AvailabilityProfile(total_nodes, origin=origin)

    monkeypatch.setattr(SchedulingState, "__init__", eager_init)
    eager = _run_ctc_cell(key, jobs, inputs, backend=backend)
    assert built == []  # an owned profile is maintained, never rebuilt
    assert _run_signature(lazy) == _run_signature(eager)
    assert lazy.profile_deltas == eager.profile_deltas > 0
    assert lazy.profile_snapshots == eager.profile_snapshots


@pytest.mark.parametrize(
    "key", ["fcfs/easy", "fcfs/conservative", "psrs/conservative"]
)
def test_materialisation_under_outages_and_overruns(key, monkeypatch):
    """The first read can come at any moment of a run.  Force it to come
    again at every read — a snapshot, or the live read a compiled walk
    copies — taken while an outage is active or a job is in overrun (the
    profile is dropped first, so it is rebuilt from the indexes there and
    maintained by deltas until the next such moment): every read verifies
    against the reference, and the schedule is the one the profile
    maintained from the first decision on gives — and the one the
    rebuild-per-decision oracle gives."""
    jobs, inputs = _disturbed_inputs()
    verified = SimulationConfig(verify_state=1)
    baseline = _run_ctc_cell(key, jobs, inputs, verified)
    reference = _run_ctc_cell(key, jobs, inputs, REBUILD)

    hits = {"outage": 0, "overrun": 0, "both": 0}

    def dropping(read):
        def dropping_read(self):
            outage, overrun = bool(self._capacity), self.has_overrun()
            if outage or overrun:
                self.profile = None
                hits["outage"] += outage
                hits["overrun"] += overrun
                hits["both"] += outage and overrun
            return read(self)

        return dropping_read

    monkeypatch.setattr(SchedulingState, "snapshot", dropping(SchedulingState.snapshot))
    monkeypatch.setattr(SchedulingState, "live", dropping(SchedulingState.live))
    result = _run_ctc_cell(key, jobs, inputs, verified)
    assert min(hits.values()) > 0, hits
    assert _run_signature(result) == _run_signature(baseline)
    assert _failure_signature(result) == _failure_signature(reference)
    audit_run(result, jobs, inputs.failures, _CTC_NODES, recovery=inputs.recovery)


# -- conservative backfilling: the plan kept across decision points -------------
#
# The rebuild side has no SchedulingState, so its ConservativeBackfill plans
# from scratch at every decision; the incremental side reuses its plan
# whenever the validity contract allows.  Bit-identical schedules are the
# exactness claim.  Under REPRO_VERIFY_STATE=1 every reused decision is also
# re-walked from scratch in-simulation.


def _registry_cell(key):
    config = next(c for c in registered_configurations() if c.key == key)
    return lambda: build_scheduler(config, NODES)


CONSERVATIVE_CELLS = {
    "fcfs": _registry_cell("fcfs/conservative"),
    "psrs": _registry_cell("psrs/conservative"),
    "smart-ffia": _registry_cell("smart-ffia/conservative"),
    "depth": lambda: OrderedQueueScheduler(
        SubmitOrderPolicy(), ConservativeBackfill(depth=5)
    ),
    "drain": lambda: DrainingScheduler(
        SubmitOrderPolicy(),
        ConservativeBackfill(),
        [Reservation(3_000.0, 3_900.0), Reservation(7_000.0, 7_900.0)],
    ),
    # Drops starts the inner discipline returned: the plan must notice.
    "user-limit": lambda: OrderedQueueScheduler(
        SubmitOrderPolicy(), UserLimitDiscipline(ConservativeBackfill(), 2)
    ),
}


def _backlog_jobs(seed):
    jobs = make_jobs(140, seed=seed, max_nodes=NODES, mean_gap=35.0)
    return [replace(job, user=job.job_id % 4) for job in jobs]


def _plain(jobs):
    return jobs, None, SimulationConfig()


def _cancellations(jobs):
    # Shortly after submission: still queued, already running, already done.
    cancellations = [
        Cancellation(time=job.submit_time + 90.0, job_id=job.job_id)
        for job in jobs
        if job.job_id % 6 == 0
    ]
    return jobs, ScenarioInputs(cancellations=cancellations), SimulationConfig()


def _failures_with_resubmit(jobs):
    trace = mtbf_trace(
        total_nodes=NODES,
        horizon=max(j.submit_time for j in jobs) + 8_000.0,
        mtbf=12_000.0,
        mttr=1_200.0,
        seed=71,
        max_nodes_per_failure=4,
    )
    assert len(trace) > 0
    return jobs, ScenarioInputs(failures=trace, recovery="resubmit"), SimulationConfig()


def _overruns(jobs):
    # Runtime beyond the estimate and nobody kills the job: it sits in
    # overrun, where only fresh snapshots carry the clamp.
    jobs = [
        replace(job, estimate=job.runtime * 0.5) if job.job_id % 4 == 0 else job
        for job in jobs
    ]
    return jobs, None, SimulationConfig(cancel_over_limit=False)


def _zero_estimates(jobs):
    jobs = [
        replace(job, estimate=0.0, runtime=0.0 if job.job_id % 2 else job.runtime)
        if job.job_id % 5 == 0
        else job
        for job in jobs
    ]
    return jobs, None, SimulationConfig(cancel_over_limit=False)


def _simultaneous_arrivals(jobs):
    jobs = [
        replace(job, submit_time=(job.submit_time // 400.0) * 400.0) for job in jobs
    ]
    return jobs, None, SimulationConfig()


def _early_completions(jobs):
    # Runtimes shrunk at fixed estimates, arrivals compressed with them so
    # the backlog stays: nearly every completion is early and replans the
    # queue, and the plans are long because the estimates still are.
    jobs = [
        replace(job, runtime=job.runtime * 0.2, submit_time=job.submit_time * 0.2)
        for job in jobs
    ]
    return jobs, None, SimulationConfig()


def _mixed_early_completions(jobs):
    # Most jobs vanish almost at once, every third one runs to its estimate:
    # on-time completions (no release, still a delta) between early ones.
    jobs = [
        replace(job, runtime=job.estimate, submit_time=job.submit_time * 0.5)
        if job.job_id % 3 == 0
        else replace(job, runtime=job.runtime * 0.02, submit_time=job.submit_time * 0.5)
        for job in jobs
    ]
    return jobs, None, SimulationConfig()


CONSERVATIVE_SCENARIOS = {
    "plain": _plain,
    "early-completions": _early_completions,
    "mixed-early-completions": _mixed_early_completions,
    "cancellations": _cancellations,
    "failures-resubmit": _failures_with_resubmit,
    "overruns": _overruns,
    "zero-estimates": _zero_estimates,
    "simultaneous-arrivals": _simultaneous_arrivals,
}


@pytest.mark.parametrize("scenario", CONSERVATIVE_SCENARIOS)
@pytest.mark.parametrize("cell", CONSERVATIVE_CELLS)
def test_conservative_plan_reuse_bit_identical(cell, scenario):
    jobs, inputs, config = CONSERVATIVE_SCENARIOS[scenario](_backlog_jobs(seed=83))
    make_scheduler = CONSERVATIVE_CELLS[cell]
    result = assert_equivalent(make_scheduler, jobs, config=config, scenario=inputs)
    # And with every reused decision re-walked from scratch in-simulation.
    verified = Simulator(
        Machine(NODES), make_scheduler(), replace(config, verify_state=1)
    ).run(jobs, scenario=inputs)
    assert signature(verified) == signature(result)


def test_start_below_the_zero_runtime_epsilon_drops_the_plan():
    """The plan holds a started job's nodes for at least the epsilon, the
    state for the estimate itself.  Job 0 runs for half the epsilon on all
    but one node; an arrival inside that window must plan job 1 behind the
    estimate, as a fresh snapshot does, not behind the epsilon."""
    jobs = [
        Job(job_id=0, submit_time=0.0, nodes=NODES - 1, runtime=5e-10, estimate=5e-10),
        Job(job_id=1, submit_time=2e-10, nodes=NODES, runtime=10.0, estimate=20.0),
        Job(job_id=2, submit_time=2e-10, nodes=1, runtime=10.0, estimate=20.0),
    ]
    result = assert_equivalent(
        CONSERVATIVE_CELLS["fcfs"], jobs, config=SimulationConfig(verify_state=1)
    )
    assert signature(result)[1][:2] == (1, 5e-10)


def test_reused_scheduler_object_starts_from_a_clean_plan():
    """``Simulator.run`` resets the scheduler, and the reset reaches the
    discipline through its wrappers: the second run of one object equals
    the run of a fresh one."""
    jobs = _backlog_jobs(seed=89)
    for cell, make_scheduler in CONSERVATIVE_CELLS.items():
        scheduler = make_scheduler()
        first = Simulator(Machine(NODES), scheduler).run(jobs)
        second = Simulator(Machine(NODES), scheduler).run(jobs)
        assert signature(first) == signature(second), cell
