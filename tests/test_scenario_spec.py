"""The scenario algebra: canonical digests, pure compilation, end-to-end flow.

Covers the :mod:`repro.scenarios` contract:

* ``digest()`` is canonical — component order and spelled-out defaults
  never change it, every non-default parameter and the seed do;
* ``compile()`` is a pure function of ``(spec, jobs, seed)`` — property
  tested with hypothesis across pickle round-trips;
* JSON round-trips, registry errors, component validation;
* the genuinely new :class:`LoadSurge` component flows end to end
  (engine fan-out, cache hit on re-run, resume, rendered tables) with
  zero wiring outside ``repro/scenarios/``;
* the CLI's ``--scenario`` file reading and the ``--list-runs`` note
  about journals whose cache entries were evicted.
"""

from __future__ import annotations

import argparse
import pickle
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.simulator import ScenarioInputs
from repro.scenarios import (
    COMPONENT_KINDS,
    CancellationModel,
    FailureModel,
    FeedbackUsers,
    LoadSurge,
    RuntimeVariability,
    ScenarioComponent,
    ScenarioSpec,
    component_seed,
    register_component,
)
from tests.conftest import failure_spec, make_jobs

NODES = 64


def jobs_stream(n=40, seed=17):
    return make_jobs(n, seed=seed, max_nodes=NODES, mean_gap=60.0)


def compiled_signature(compiled):
    """Byte-comparable form of a compiled scenario."""
    return (
        compiled.jobs,
        compiled.inputs.cancellations,
        None if compiled.failures is None else compiled.failures.fingerprint(),
        compiled.inputs.recovery,
        compiled.cancel_over_limit,
        compiled.digest,
    )


# -- canonical digests -----------------------------------------------------------


class TestDigest:
    def test_empty_spec_is_the_healthy_baseline(self):
        spec = ScenarioSpec()
        assert spec.digest() == ""
        compiled = spec.compile(jobs_stream())
        assert list(compiled.jobs) == jobs_stream()
        assert compiled.inputs == ScenarioInputs()
        assert compiled.cancel_over_limit is False

    def test_component_order_is_irrelevant(self):
        a = ScenarioSpec(
            (LoadSurge(at=100.0, count=5), CancellationModel(fraction=0.2)), seed=3
        )
        b = ScenarioSpec(
            (CancellationModel(fraction=0.2), LoadSurge(at=100.0, count=5)), seed=3
        )
        assert a.digest() == b.digest()
        jobs = jobs_stream()
        assert compiled_signature(a.compile(jobs)) == compiled_signature(
            b.compile(jobs)
        )

    def test_spelled_out_defaults_do_not_change_the_digest(self):
        terse = ScenarioSpec((LoadSurge(at=100.0),))
        spelled = ScenarioSpec(
            (
                LoadSurge(
                    at=100.0, duration=600.0, count=50, max_nodes=8,
                    runtime_median=600.0, runtime_sigma=0.5,
                    estimate_slack=2.0, user=9_999, seed=None,
                ),
            )
        )
        assert terse.digest() == spelled.digest()

    def test_integer_spelling_of_float_fields_is_canonical(self):
        # A JSON author writing 100 instead of 100.0 must land on the
        # same digest (FLOAT_FIELDS coercion).
        assert ScenarioSpec((LoadSurge(at=100),)).digest() == (
            ScenarioSpec((LoadSurge(at=100.0),)).digest()
        )

    def test_every_parameter_and_the_seed_move_the_digest(self):
        base = ScenarioSpec((CancellationModel(fraction=0.2),), seed=3)
        assert base.digest() != ScenarioSpec(
            (CancellationModel(fraction=0.3),), seed=3
        ).digest()
        assert base.digest() != replace(base, seed=4).digest()
        assert base.digest() != base.with_components(LoadSurge()).digest()

    def test_json_round_trip_preserves_digest_and_compile(self):
        spec = ScenarioSpec(
            (
                FailureModel(mtbf=20_000.0, mttr=900.0, recovery="resubmit",
                             total_nodes=NODES, horizon=30_000.0),
                LoadSurge(at=50.0, count=6, max_nodes=4),
                RuntimeVariability(estimate_sigma=0.3, enforce_limit=True),
                CancellationModel(fraction=0.15),
            ),
            seed=11,
        )
        round_tripped = ScenarioSpec.from_json(spec.to_json())
        assert round_tripped.digest() == spec.digest()
        jobs = jobs_stream()
        assert compiled_signature(round_tripped.compile(jobs)) == (
            compiled_signature(spec.compile(jobs))
        )


# -- compilation semantics -------------------------------------------------------


class TestCompile:
    def test_phase_order_beats_list_order(self):
        """Cancellations are drawn from the post-surge stream even when the
        cancellation component is listed first."""
        jobs = jobs_stream(20)
        surge_first = ScenarioSpec(
            (LoadSurge(at=0.0, count=30, max_nodes=4), CancellationModel(fraction=0.4)),
            seed=5,
        )
        cancel_first = ScenarioSpec(
            (CancellationModel(fraction=0.4), LoadSurge(at=0.0, count=30, max_nodes=4)),
            seed=5,
        )
        a = surge_first.compile(jobs)
        b = cancel_first.compile(jobs)
        assert compiled_signature(a) == compiled_signature(b)
        surge_ids = {job.job_id for job in a.jobs} - {job.job_id for job in jobs}
        assert surge_ids  # the surge actually added jobs
        # And at least one cancellation targets a surge job — proof the
        # disturb phase saw the augmented stream.
        assert any(c.job_id in surge_ids for c in a.inputs.cancellations)

    def test_explicit_component_seed_pins_the_outcome(self):
        jobs = jobs_stream()
        pinned = ScenarioSpec((CancellationModel(fraction=0.3, seed=9),), seed=1)
        other_spec_seed = ScenarioSpec(
            (CancellationModel(fraction=0.3, seed=9),), seed=2
        )
        assert (
            pinned.compile(jobs).inputs.cancellations
            == other_spec_seed.compile(jobs).inputs.cancellations
        )
        # Without a pinned seed the spec seed flows through sub-seeds.
        a = ScenarioSpec((CancellationModel(fraction=0.3),), seed=1).compile(jobs)
        b = ScenarioSpec((CancellationModel(fraction=0.3),), seed=2).compile(jobs)
        assert a.inputs.cancellations != b.inputs.cancellations

    def test_compile_seed_override(self):
        jobs = jobs_stream()
        spec = ScenarioSpec((CancellationModel(fraction=0.3),), seed=1)
        assert compiled_signature(spec.compile(jobs, seed=2))[1] == (
            compiled_signature(replace(spec, seed=2).compile(jobs))[1]
        )

    def test_component_sub_seeds_are_independent(self):
        assert component_seed(7, "cancellations", 0) != component_seed(
            7, "failures", 0
        )
        assert component_seed(7, "cancellations", 0) != component_seed(
            7, "cancellations", 1
        )
        assert component_seed(7, "cancellations", 0) == component_seed(
            7, "cancellations", 0
        )

    def test_explicit_trace_compiles_byte_identically(self):
        from repro.failures.trace import mtbf_trace

        trace = mtbf_trace(
            total_nodes=NODES, horizon=30_000.0, mtbf=9_000.0, mttr=600.0, seed=31
        )
        compiled = failure_spec(trace, "resubmit").compile(jobs_stream())
        assert compiled.failures.fingerprint() == trace.fingerprint()
        assert compiled.inputs.recovery == "resubmit"

    def test_two_failure_models_refused(self):
        spec = ScenarioSpec(
            (
                FailureModel(trace=((10.0, 20.0, 1),)),
                FailureModel(trace=((30.0, 40.0, 2),)),
            )
        )
        with pytest.raises(ValueError, match="at most one FailureModel"):
            spec.compile(jobs_stream())

    def test_backend_environment_never_touches_compilation(self, monkeypatch):
        """Compilation is backend-independent: the event streams come out
        byte-identical whatever REPRO_BACKEND says."""
        spec = ScenarioSpec(
            (LoadSurge(count=10), CancellationModel(fraction=0.2)), seed=3
        )
        jobs = jobs_stream()
        monkeypatch.setenv("REPRO_BACKEND", "python")
        under_python = compiled_signature(spec.compile(jobs))
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert compiled_signature(spec.compile(jobs)) == under_python


# -- the component registry ------------------------------------------------------


class TestRegistry:
    def test_builtin_kinds_registered(self):
        assert set(COMPONENT_KINDS) >= {
            "feedback-users", "load-surge", "runtime-variability",
            "cancellations", "failures",
        }

    def test_unknown_kind_is_a_loud_error(self):
        with pytest.raises(ValueError, match="unknown scenario component kind"):
            ScenarioSpec.from_dict(
                {"components": [{"kind": "meteor-strike"}]}
            )

    def test_unknown_component_field_is_a_loud_error(self):
        with pytest.raises(ValueError, match="unknown"):
            ScenarioSpec.from_dict(
                {"components": [{"kind": "cancellations", "fractoin": 0.5}]}
            )

    def test_unknown_top_level_field_is_a_loud_error(self):
        with pytest.raises(ValueError, match="unknown scenario spec field"):
            ScenarioSpec.from_dict({"seed": 1, "component": []})

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="fraction"):
            CancellationModel(fraction=1.5)
        with pytest.raises(ValueError, match="not both"):
            FailureModel(mtbf=1000.0, trace=((1.0, 2.0, 1),))
        with pytest.raises(ValueError, match="estimate_slack"):
            LoadSurge(estimate_slack=0.5)
        with pytest.raises(TypeError, match="ScenarioComponent"):
            ScenarioSpec(("not-a-component",))

    def test_third_party_component_round_trips(self):
        """The algebra is open: a component registered after the fact
        digests, serializes and compiles with zero engine changes."""
        from dataclasses import dataclass
        from typing import ClassVar

        @register_component
        @dataclass(frozen=True)
        class _Stall(ScenarioComponent):
            kind: ClassVar[str] = "test-stall"
            phase: ClassVar[str] = "transform"
            FLOAT_FIELDS: ClassVar[tuple[str, ...]] = ("delay",)

            delay: float = 60.0

            def apply(self, state):
                state.jobs = [
                    replace(job, submit_time=job.submit_time + self.delay)
                    for job in state.jobs
                ]

        try:
            spec = ScenarioSpec((_Stall(delay=120.0),))
            again = ScenarioSpec.from_json(spec.to_json())
            assert again.digest() == spec.digest()
            jobs = jobs_stream(5)
            compiled = again.compile(jobs)
            assert [j.submit_time for j in compiled.jobs] == [
                j.submit_time + 120.0 for j in jobs
            ]
        finally:
            del COMPONENT_KINDS["test-stall"]


# -- purity property (hypothesis) ------------------------------------------------


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the test env
    HAVE_HYPOTHESIS = False


if HAVE_HYPOTHESIS:
    _seeds = st.one_of(st.none(), st.integers(min_value=0, max_value=2**16))
    _fractions = st.floats(
        min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
    )
    _disturbers = st.one_of(
        st.builds(CancellationModel, fraction=_fractions, seed=_seeds),
        st.builds(
            LoadSurge,
            at=st.floats(0.0, 5_000.0, allow_nan=False),
            duration=st.floats(1.0, 2_000.0, allow_nan=False),
            count=st.integers(0, 15),
            max_nodes=st.integers(1, NODES),
            seed=_seeds,
        ),
        st.builds(
            RuntimeVariability,
            sigma=st.floats(0.0, 1.0, allow_nan=False),
            estimate_sigma=st.floats(0.0, 1.0, allow_nan=False),
            enforce_limit=st.booleans(),
            seed=_seeds,
        ),
    )
    _failure = st.builds(
        FailureModel,
        mtbf=st.floats(2_000.0, 80_000.0, allow_nan=False),
        mttr=st.floats(60.0, 4_000.0, allow_nan=False),
        horizon=st.floats(5_000.0, 40_000.0, allow_nan=False),
        max_nodes_per_failure=st.integers(1, 8),
        total_nodes=st.just(NODES),
        recovery=st.sampled_from([None, "abandon", "resubmit"]),
        seed=_seeds,
    )
    _specs = st.builds(
        lambda parts, failure, seed: ScenarioSpec(
            tuple(parts) + (() if failure is None else (failure,)), seed=seed
        ),
        st.lists(_disturbers, max_size=3),
        st.one_of(st.none(), _failure),
        st.integers(min_value=0, max_value=2**16),
    )

    @settings(max_examples=40, deadline=None)
    @given(spec=_specs, data=st.data())
    def test_compile_is_pure_in_spec_jobs_seed(spec, data):
        """Equal ``(spec, jobs, seed)`` — including a pickle round-trip of
        the spec and a shuffled component order — produce byte-identical
        compiled event streams, and equal digests."""
        jobs = jobs_stream(20, seed=29)
        first = compiled_signature(spec.compile(jobs))
        again = compiled_signature(spec.compile(jobs))
        assert again == first

        pickled = pickle.loads(pickle.dumps(spec))
        assert pickled.digest() == spec.digest()
        assert compiled_signature(pickled.compile(jobs)) == first

        shuffled_components = data.draw(st.permutations(list(spec.components)))
        shuffled = ScenarioSpec(tuple(shuffled_components), seed=spec.seed)
        assert shuffled.digest() == spec.digest()
        assert compiled_signature(shuffled.compile(jobs)) == first

        # The compiled artifact itself survives pickling byte-for-byte
        # (it is shipped to worker processes).
        compiled = spec.compile(jobs)
        assert compiled_signature(pickle.loads(pickle.dumps(compiled))) == first


# -- simulator surface (satellite: offending keywords are named) ------------------


class TestSimulatorSurface:
    def _sim(self):
        from repro.core.machine import Machine
        from repro.core.simulator import Simulator
        from repro.schedulers import FCFSScheduler

        return Simulator(Machine(NODES), FCFSScheduler.with_easy())

    def test_conflict_error_names_the_offending_keywords(self):
        jobs = jobs_stream(10)
        with pytest.raises(TypeError, match=r"unexpected keyword.*'recovery'"):
            self._sim().run(
                jobs, scenario=ScenarioInputs(), recovery="abandon"
            )

    def test_run_accepts_a_spec_directly(self):
        jobs = jobs_stream(15)
        spec = ScenarioSpec((LoadSurge(count=5, max_nodes=4),), seed=2)
        result = self._sim().run(jobs, scenario=spec)
        assert len(result.schedule) == len(jobs) + 5

    def test_run_rejects_uncompilable_scenarios(self):
        with pytest.raises(TypeError, match="compilable"):
            self._sim().run(jobs_stream(5), scenario=object())


# -- LoadSurge end to end ---------------------------------------------------------


class TestLoadSurgeEndToEnd:
    """The acceptance gauntlet for a *new* component: everything below
    works through the generic scenario path, with zero LoadSurge wiring
    outside ``repro/scenarios/``."""

    @pytest.fixture
    def setup(self, tmp_path):
        from repro.experiments.engine import ExperimentEngine
        from repro.experiments.runner import SchedulerConfig

        jobs = jobs_stream(50, seed=23)
        spec = ScenarioSpec(
            (LoadSurge(at=300.0, duration=900.0, count=20, max_nodes=8),), seed=7
        )
        configs = [SchedulerConfig("fcfs", "easy"), SchedulerConfig("fcfs", "list")]
        engine = ExperimentEngine(
            workers=1, cache=tmp_path / "cache", handle_signals=False
        )
        return jobs, spec, configs, engine

    def test_engine_fanout_cache_resume_and_tables(self, setup):
        from repro.experiments.tables import format_grid

        jobs, spec, configs, engine = setup
        baseline = engine.run(jobs, total_nodes=NODES, configs=configs)
        surged = engine.run(jobs, total_nodes=NODES, configs=configs, scenario=spec)
        run_id = engine.stats.run_id
        assert surged.fingerprints != baseline.fingerprints
        assert surged.cells.keys() == baseline.cells.keys()

        # Re-run: every cell comes out of the cache.
        again = engine.run(jobs, total_nodes=NODES, configs=configs, scenario=spec)
        assert engine.stats.simulated == 0
        assert engine.stats.cache_hits == len(configs)
        assert again.fingerprints == surged.fingerprints

        # Resume under the same spec stitches the identical grid.
        resumed = engine.resume(
            run_id, jobs, total_nodes=NODES, configs=configs, scenario=spec
        )
        assert resumed.fingerprints == surged.fingerprints

        # The rendered table carries the surged stream (50 base jobs
        # plus the 20-job flash crowd) and its objectives.
        table = format_grid(surged)
        assert "FCFS" in table
        assert "70 jobs" in table
        assert surged.cells["fcfs/easy"].objective != (
            baseline.cells["fcfs/easy"].objective
        )

    def test_parallel_equals_serial_under_spec(self, setup, tmp_path):
        from repro.experiments.engine import ExperimentEngine

        jobs, spec, configs, engine = setup
        serial = engine.run(jobs, total_nodes=NODES, configs=configs, scenario=spec)
        parallel = ExperimentEngine(
            workers=2, cache=tmp_path / "par-cache", handle_signals=False
        ).run(jobs, total_nodes=NODES, configs=configs, scenario=spec)
        assert parallel.fingerprints == serial.fingerprints
        assert {k: c.objective for k, c in parallel.cells.items()} == {
            k: c.objective for k, c in serial.cells.items()
        }

    def test_run_scenarios_sweep(self, setup):
        jobs, spec, configs, engine = setup
        out = engine.run_scenarios(
            jobs,
            {"healthy": None, "surge": spec},
            total_nodes=NODES,
            configs=configs,
        )
        assert list(out) == ["healthy", "surge"]
        assert out["healthy"].fingerprints != out["surge"].fingerprints
        assert out["healthy"].workload_name.endswith("[healthy]")

    def test_legacy_keywords_conflict_with_spec(self, setup):
        jobs, spec, configs, engine = setup
        with pytest.raises(TypeError, match=r"unexpected keyword.*'recovery'"):
            engine.run(jobs, configs=configs, scenario=spec, recovery="abandon")


# -- CLI ---------------------------------------------------------------------------


class TestCli:
    def test_no_flags_is_no_scenario(self, tmp_path):
        from repro.experiments.cli import _read_scenario

        assert _read_scenario(argparse.Namespace(scenario=None)) is None
        # A spec without components is the healthy baseline too.
        path = tmp_path / "empty.json"
        path.write_text(ScenarioSpec(seed=3).to_json())
        assert _read_scenario(argparse.Namespace(scenario=path)) is None

    def test_file_only_spec_digests_identically(self, tmp_path):
        from repro.experiments.cli import _read_scenario

        spec = ScenarioSpec(
            (LoadSurge(count=4), CancellationModel(fraction=0.2)), seed=5
        )
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        assert _read_scenario(
            argparse.Namespace(scenario=path)
        ).digest() == spec.digest()

    def test_committed_failures_spec_digest_is_pinned(self):
        """``tests/data/failures_resubmit.json`` drives the CI run-lifecycle
        smoke; its digest is pinned so that smoke's run ids stay put."""
        from repro.experiments.cli import _read_scenario

        path = Path(__file__).parent / "data" / "failures_resubmit.json"
        spec = _read_scenario(argparse.Namespace(scenario=path))
        assert spec.digest() == (
            "3d700ea78170c94bdd863c624700238a347768c77aefd7bfa0a644d3c9339354"
        )
        assert spec.digest() == ScenarioSpec(
            (FailureModel(mtbf=40_000.0, recovery="resubmit"),), seed=7
        ).digest()

    def test_list_runs_notes_evicted_cells(self, tmp_path, capsys):
        from repro.experiments.cli import main
        from repro.experiments.engine import ExperimentEngine
        from repro.experiments.runner import SchedulerConfig

        cache_dir = tmp_path / "cache"
        engine = ExperimentEngine(
            workers=1, cache=cache_dir, handle_signals=False
        )
        jobs = jobs_stream(30)
        grid = engine.run(
            jobs, total_nodes=NODES, configs=[SchedulerConfig("fcfs", "easy")]
        )
        run_id = engine.stats.run_id

        # Intact cache: no note.
        assert main(["--list-runs", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert run_id in out
        assert "note:" not in out

        # Evict the journaled cells (what a CACHE_VERSION bump does) and
        # the listing says resume will re-simulate them.
        for fingerprint in grid.fingerprints.values():
            engine.cache.path(fingerprint).unlink()
        assert main(["--list-runs", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert f"note: run {run_id} references 1 completed cell(s)" in out
        assert "--resume will re-simulate them" in out
