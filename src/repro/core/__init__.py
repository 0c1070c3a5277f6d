"""Core substrate: job and machine models, events, the discrete-event
simulation engine, schedule records and validity checking.

This package is the foundation every other subsystem builds on.  It knows
nothing about specific scheduling algorithms or workload models; it only
defines

* what a :class:`~repro.core.job.Job` is (the rigid job model of the paper's
  Example 5),
* what a :class:`~repro.core.machine.Machine` is (a space-shared partition of
  identical nodes, no time sharing, exclusive access),
* how simulated time advances (:mod:`repro.core.simulator`),
* what a finished :class:`~repro.core.schedule.Schedule` looks like and what
  makes it *valid*,
* the :class:`~repro.core.profile.AvailabilityProfile` step function used by
  backfilling and reservations, and
* the incremental :class:`~repro.core.state.SchedulingState` the simulator
  maintains across events and exposes to schedulers as cheap snapshots.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.job import Job, JobState
    from repro.core.machine import Machine
    from repro.core.schedule import Schedule, ScheduledJob, ValidityError
    from repro.core.events import Event, EventKind, EventQueue
    from repro.core.profile import AvailabilityProfile
    from repro.core.simulator import (
        ScenarioInputs,
        SimulationConfig,
        SimulationResult,
        Simulator,
    )
    from repro.core.state import SchedulingState, StateDivergenceError
    from repro.core.vector import resolve_backend

__getattr__, __dir__ = lazy_exports(__name__, {
    ".job": ("Job", "JobState"),
    ".machine": ("Machine",),
    ".schedule": ("Schedule", "ScheduledJob", "ValidityError"),
    ".events": ("Event", "EventKind", "EventQueue"),
    ".profile": ("AvailabilityProfile",),
    ".simulator": (
        "ScenarioInputs", "SimulationConfig", "SimulationResult", "Simulator",
    ),
    ".state": ("SchedulingState", "StateDivergenceError"),
    ".vector": ("resolve_backend",),
})

__all__ = [
    "AvailabilityProfile",
    "Event",
    "EventKind",
    "EventQueue",
    "Job",
    "JobState",
    "Machine",
    "ScenarioInputs",
    "Schedule",
    "ScheduledJob",
    "SchedulingState",
    "SimulationConfig",
    "SimulationResult",
    "Simulator",
    "StateDivergenceError",
    "ValidityError",
    "resolve_backend",
]
