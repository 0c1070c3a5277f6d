"""``ScenarioSpec`` — the declarative, digestable scenario container.

``ScenarioSpec.compile(jobs, seed)`` is a *pure function*: equal
``(spec, jobs, seed)`` always produce byte-identical compiled scenarios —
same job stream, same cancellation events, same failure-trace fingerprint
— across processes, pickle round-trips and simulation backends.  That
purity is what lets the experiment engine fingerprint a cell as
``(jobs digest, scenario digest, grid axes)`` and trust the cache.

``digest()`` hashes the *canonical* form: components sorted into
execution order with default-valued fields dropped, so neither the order
a spec was written in nor spelling out defaults changes a cell's cache
identity (see docs/architecture.md, "Scenario algebra").
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.scenarios.base import (
    CompileState,
    ScenarioComponent,
    canonical_components,
    component_from_dict,
    component_seed,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.job import Job
    from repro.core.simulator import ScenarioInputs
    from repro.failures.trace import FailureTrace


@dataclass(frozen=True)
class CompiledScenario:
    """The output of :meth:`ScenarioSpec.compile`.

    ``jobs`` is the final event stream (arrival and transform components
    folded in), ``inputs`` the simulator-ready disturbance bundle, and
    ``cancel_over_limit`` the compiled estimate-limit kill flag.  The
    :class:`~repro.core.simulator.Simulator` consumes all three when a
    spec is passed as ``scenario=``; the engine additionally feeds
    ``digest`` into every cell fingerprint.
    """

    jobs: tuple["Job", ...]
    inputs: "ScenarioInputs"
    cancel_over_limit: bool
    digest: str

    @property
    def failures(self) -> "FailureTrace | None":
        return self.inputs.failures


@dataclass(frozen=True)
class ScenarioSpec:
    """A composable, seeded bundle of scenario components.

    The empty spec is the healthy baseline: it compiles to the unchanged
    stream with no disturbances and digests to ``""`` — the same cache
    identity as running without a scenario at all.
    """

    components: tuple[ScenarioComponent, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        for component in self.components:
            if not isinstance(component, ScenarioComponent):
                raise TypeError(
                    f"components must be ScenarioComponent instances, "
                    f"got {component!r}"
                )

    def with_components(self, *extra: ScenarioComponent) -> "ScenarioSpec":
        """A new spec with ``extra`` appended (order is irrelevant anyway)."""
        return replace(self, components=(*self.components, *extra))

    # -- canonical form and digest ---------------------------------------

    def canonical(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "components": [
                component.canonical()
                for component in canonical_components(self.components)
            ],
        }

    def digest(self) -> str:
        """Canonical content digest; ``""`` for the empty (healthy) spec.

        Component order and default-valued fields never change it; the
        seed and every non-default parameter do.
        """
        if not self.components:
            return ""
        payload = json.dumps(self.canonical(), sort_keys=True)
        return hashlib.sha256(payload.encode("ascii")).hexdigest()

    # -- compilation ------------------------------------------------------

    def compile(
        self, jobs: Iterable["Job"], seed: int | None = None
    ) -> CompiledScenario:
        """Fold every component into ``jobs``; pure in ``(spec, jobs, seed)``.

        ``seed`` overrides the spec's own seed (components with an
        explicit ``seed`` field are pinned regardless).  Components run in
        canonical order — phase first (arrive, augment, transform,
        disturb), canonical form second — never in list order.
        """
        from repro.core.simulator import ScenarioInputs

        spec_seed = self.seed if seed is None else seed
        state = CompileState(jobs=list(jobs), seed=spec_seed)
        occurrences: dict[str, int] = {}
        for component in canonical_components(self.components):
            index = occurrences.get(component.kind, 0)
            occurrences[component.kind] = index + 1
            state.component_seed = component_seed(
                spec_seed, component.kind, index
            )
            component.apply(state)
        return CompiledScenario(
            jobs=tuple(state.jobs),
            inputs=ScenarioInputs(
                cancellations=tuple(state.cancellations),
                failures=state.failures,
                recovery=state.recovery,
            ),
            cancel_over_limit=state.cancel_over_limit,
            digest=self.digest(),
        )

    # -- JSON -------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "components": [c.to_dict() for c in self.components],
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"a scenario spec must be a JSON object, got {type(payload).__name__}"
            )
        unknown = set(payload) - {"seed", "components"}
        if unknown:
            raise ValueError(
                f"unknown scenario spec field(s): {', '.join(sorted(unknown))}"
            )
        components = payload.get("components", [])
        if not isinstance(components, (list, tuple)) or not all(
            isinstance(item, Mapping) for item in components
        ):
            raise ValueError(
                f"scenario spec 'components' must be a list of objects, "
                f"got {components!r}"
            )
        seed = payload.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError(f"scenario spec 'seed' must be an integer, got {seed!r}")
        return cls(
            components=tuple(component_from_dict(item) for item in components),
            seed=seed,
        )

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

