"""The scenario algebra: one seeded, composable disturbance DSL.

A :class:`ScenarioSpec` bundles order-independent event-stream components
— arrivals, flash crowds, runtime variability, cancellations, failures —
and compiles them into the simulator's
:class:`~repro.core.simulator.ScenarioInputs` plus the final job stream::

    from repro.scenarios import (
        CancellationModel, FailureModel, LoadSurge, ScenarioSpec,
    )

    spec = ScenarioSpec(
        (
            FailureModel(mtbf=40_000.0, mttr=1_800.0, recovery="resubmit"),
            LoadSurge(at=3_600.0, duration=900.0, count=80),
            CancellationModel(fraction=0.05),
        ),
        seed=7,
    )
    compiled = spec.compile(jobs)          # pure in (spec, jobs, seed)
    engine.run(jobs, scenario=spec)        # digest enters every fingerprint

Equal specs digest equally regardless of component order or spelled-out
defaults, so the content-addressed cache, run journals and ``--resume``
all work unchanged for any component — including ones registered after
the fact (see :mod:`repro.scenarios.base`).
"""

from repro.scenarios.base import (
    COMPONENT_KINDS,
    PHASES,
    CompileState,
    ScenarioComponent,
    component_seed,
    register_component,
)
from repro.scenarios.components import (
    ArrivalModel,
    CancellationModel,
    FailureModel,
    FeedbackUsers,
    LoadSurge,
    RuntimeVariability,
)
from repro.scenarios.spec import CompiledScenario, ScenarioSpec

__all__ = [
    "ArrivalModel",
    "COMPONENT_KINDS",
    "CancellationModel",
    "CompileState",
    "CompiledScenario",
    "FailureModel",
    "FeedbackUsers",
    "LoadSurge",
    "PHASES",
    "RuntimeVariability",
    "ScenarioComponent",
    "ScenarioSpec",
    "component_seed",
    "register_component",
]
