"""The ``SimulationConfig`` / ``ScenarioInputs`` API — the only surface.

PR 6 collapsed the keyword tails of ``Simulator(...)`` and
``Simulator.run(...)`` into two frozen bundles; PR 12 deleted the
deprecated keyword shims that survived alongside them.  This file pins
the contract:

* every removed keyword is a ``TypeError`` (never silently ignored) and
  nothing in ``repro`` raises ``DeprecationWarning``;
* the new surface is exported from ``repro`` / ``repro.core``;
* the cache identity is pinned — ``CACHE_VERSION`` (bumped 3 → 4 when the
  scenario digest entered every fingerprint) and the fingerprint
  algorithm reproduce committed digests byte-for-byte, with the backend
  deliberately absent from a cell's identity (caches written under one
  backend serve the other).
"""

import warnings

import pytest

from repro.core.machine import Machine
from repro.core.simulator import (
    ScenarioInputs,
    SimulationConfig,
    Simulator,
    simulate,
)
from repro.schedulers.registry import build_scheduler, registered_configurations
from tests.conftest import make_jobs

NODES = 64


def signature(result):
    return [
        (item.job.job_id, item.start_time, item.end_time, item.cancelled)
        for item in result.schedule
    ]


def _scheduler():
    config = next(iter(registered_configurations()))
    return build_scheduler(config, NODES)


REMOVED_KEYWORDS = [
    ("Simulator", "cancel_over_limit", True),
    ("Simulator", "collect_trace", True),
    ("Simulator", "incremental_state", False),
    ("Simulator", "verify_state", 3),
    ("Simulator.run", "cancellations", []),
    ("Simulator.run", "failures", None),
    ("Simulator.run", "recovery", "abandon"),
    ("simulate", "cancellations", []),
    ("simulate", "failures", None),
    ("simulate", "recovery", "abandon"),
    ("simulate", "collect_trace", True),
    ("ExperimentEngine", "use_workload_store", False),
    ("ExperimentEngine", "max_retries", 2),
    ("ExperimentEngine", "retry_backoff", 0.5),
    ("ExperimentEngine", "max_pool_rebuilds", 2),
    ("ExperimentEngine", "heartbeat_interval", 15.0),
    ("ExperimentEngine", "heartbeat_timeout", 60.0),
    ("ExperimentEngine.run", "failures", None),
    ("ExperimentEngine.run", "recovery", "abandon"),
    ("ExperimentEngine.run", "resume_run_id", "0" * 12),
    ("ExperimentEngine.run_id_for", "failures", None),
    ("ExperimentEngine.run_id_for", "recovery", "abandon"),
    ("run_experiment", "use_workload_store", False),
    ("run_experiment", "workers", 2),
    ("run_experiment", "cache", None),
    ("run_experiment", "total_nodes", 128),
    ("run_experiment", "resume_run_id", "0" * 12),
    ("simulate_cell", "failures", None),
    ("simulate_cell", "cancellations", ()),
]


@pytest.mark.parametrize(
    "surface, keyword, value",
    REMOVED_KEYWORDS,
    ids=[f"{surface}-{keyword}" for surface, keyword, _ in REMOVED_KEYWORDS],
)
def test_removed_keyword_raises_type_error(surface, keyword, value):
    """Deleted spellings (PR 12's shims, PR 18's engine pass-throughs) are
    rejected by the signature itself, never silently ignored."""
    from repro.experiments import ExperimentEngine, run_experiment
    from repro.experiments.runner import simulate_cell
    from repro.schedulers.registry import SchedulerConfig

    jobs = make_jobs(10, seed=2, max_nodes=NODES, mean_gap=40.0)
    extra = {keyword: value}
    calls = {
        "Simulator": lambda: Simulator(Machine(NODES), _scheduler(), **extra),
        "Simulator.run": lambda: Simulator(Machine(NODES), _scheduler()).run(
            jobs, **extra
        ),
        "simulate": lambda: simulate(jobs, _scheduler(), NODES, **extra),
        "ExperimentEngine": lambda: ExperimentEngine(**extra),
        "ExperimentEngine.run": lambda: ExperimentEngine().run(
            jobs, total_nodes=NODES, **extra
        ),
        "ExperimentEngine.run_id_for": lambda: ExperimentEngine().run_id_for(
            jobs, total_nodes=NODES, **extra
        ),
        "run_experiment": lambda: run_experiment("table3", scale=20, **extra),
        "simulate_cell": lambda: simulate_cell(
            SchedulerConfig("fcfs", "easy"), jobs, total_nodes=NODES, **extra
        ),
    }
    with pytest.raises(TypeError, match=f"unexpected keyword.*'{keyword}'"):
        calls[surface]()


def test_the_second_resume_path_is_gone():
    """A rerun of the same call is the resume: no method or journal
    constructor offers another way in."""
    from repro.experiments import ExperimentEngine
    from repro.experiments.journal import RunJournal

    assert not hasattr(ExperimentEngine, "resume")
    assert not hasattr(RunJournal, "open_resume")


def test_cancellations_are_no_longer_positional():
    jobs = make_jobs(10, seed=2, max_nodes=NODES, mean_gap=40.0)
    with pytest.raises(TypeError, match="positional"):
        Simulator(Machine(NODES), _scheduler()).run(jobs, [])


def test_scenario_and_legacy_keywords_conflict():
    jobs = make_jobs(10, seed=2, max_nodes=NODES, mean_gap=40.0)
    with pytest.raises(TypeError, match="unexpected keyword.*'cancellations'"):
        Simulator(Machine(NODES), _scheduler()).run(
            jobs, cancellations=[], scenario=ScenarioInputs()
        )


def test_new_surface_emits_no_deprecation_warnings():
    jobs = make_jobs(30, seed=29, max_nodes=NODES, mean_gap=40.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        Simulator(
            Machine(NODES), _scheduler(), SimulationConfig(backend="python")
        ).run(jobs, scenario=ScenarioInputs())
        # The backend= convenience keyword is first-class, not deprecated.
        Simulator(Machine(NODES), _scheduler(), backend="python").run(jobs)
        simulate(jobs, _scheduler(), NODES, config=SimulationConfig())


def test_config_properties_reflect_bundle():
    sim = Simulator(
        Machine(NODES),
        _scheduler(),
        SimulationConfig(
            cancel_over_limit=True,
            incremental_state=False,
            verify_state=3,
        ),
    )
    assert sim.config.cancel_over_limit is True
    assert sim.config.incremental_state is False
    assert sim.config.verify_state == 3
    # The bundle is the only home of these fields: no mirror attributes.
    for name in ("cancel_over_limit", "incremental_state", "verify_state"):
        assert not hasattr(sim, name)
    assert sim.backend in ("python", "numpy")


def test_exports():
    import repro
    import repro.core

    for module in (repro, repro.core):
        assert module.SimulationConfig is SimulationConfig
        assert module.ScenarioInputs is ScenarioInputs
        assert module.resolve_backend("python") == "python"


# -- cache identity stability -----------------------------------------------------


def test_cache_version_holds():
    from repro.experiments.engine import CACHE_VERSION

    assert CACHE_VERSION == 4, (
        "v4 is the scenario-algebra bump: cell fingerprints gained the "
        "canonical scenario digest (see docs/architecture.md, 'Scenario "
        "algebra').  If a true semantic change forces another bump, "
        "update this test alongside a changelog entry explaining the "
        "invalidation"
    )


def test_fingerprints_stable_across_redesign():
    """Fingerprints are pinned byte-for-byte under CACHE_VERSION 4.

    The jobs digest predates every redesign and must never move.  The
    cell digests were re-pinned exactly once, when the ``scenario`` key
    (the canonical scenario-spec digest) entered the fingerprint payload
    and CACHE_VERSION went 3 → 4; any further drift is an accidental
    cache invalidation."""
    from repro.core.job import Job
    from repro.experiments.engine import cell_fingerprint, fingerprint_jobs
    from repro.schedulers.registry import SchedulerConfig

    jobs = [
        Job(job_id=1, submit_time=0.0, nodes=4, runtime=100.0, estimate=120.0, user=1),
        Job(job_id=2, submit_time=10.5, nodes=8, runtime=50.0, user=2, weight=2.0),
    ]
    digest = fingerprint_jobs(jobs)
    assert digest == (
        "6c9d47a44eaa168a1d602a256cdd1e513bb2f5d9c5a508f78300f430e6f07d02"
    )
    assert cell_fingerprint(
        digest, SchedulerConfig(row="fcfs", column="easy"),
        total_nodes=64, weighted=False,
    ) == "f6dfb42884338fda728cf818693e7ba7b60c9e8eb48b32325eafd5204643fc6d"
    assert cell_fingerprint(
        digest, SchedulerConfig(row="fcfs", column="easy"),
        total_nodes=64, weighted=True, recompute_threshold=0.5,
        failures_digest="abc", recovery="resubmit",
    ) == "e2613fe6e35cfac7a832fcad8ef6a43bf8979dbece7f1f7c6f898d0048c7c4af"
    assert cell_fingerprint(
        digest, SchedulerConfig(row="fcfs", column="easy"),
        total_nodes=64, weighted=False, scenario="d" * 64,
    ) == "dad68d40b61ab61df707e60c42ae4ca2962e6b005710c4d36c81e37c4d472c65"


def test_cache_hits_across_backends(tmp_path):
    """A cache populated under one backend serves the other verbatim —
    the backend is not part of a cell's identity."""
    from repro.experiments.engine import ExperimentEngine

    jobs = make_jobs(60, seed=31, max_nodes=NODES, mean_gap=40.0)
    first = ExperimentEngine(cache=tmp_path / "cache", backend="python")
    grid_py = first.run(jobs, total_nodes=NODES)
    assert first.stats.simulated == len(grid_py.cells)
    second = ExperimentEngine(cache=tmp_path / "cache", backend="numpy")
    grid_np = second.run(jobs, total_nodes=NODES)
    assert second.stats.simulated == 0
    assert second.stats.cache_hits == len(grid_np.cells)
    assert grid_np.fingerprints == grid_py.fingerprints
    assert {k: v.objective for k, v in grid_np.cells.items()} == {
        k: v.objective for k, v in grid_py.cells.items()
    }
