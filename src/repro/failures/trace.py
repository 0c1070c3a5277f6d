"""Node failure/repair traces: deterministic event lists and MTBF sampling.

A failure takes ``nodes`` nodes out of the machine over ``[down_time,
up_time)``.  Traces are plain data — sorted tuples of
:class:`NodeFailure` — so they are picklable (the experiment engine ships
them to pool workers), hashable into cache fingerprints, and replayable
bit-for-bit.

Two sources:

* hand-written event lists (``FailureTrace([NodeFailure(...), ...])``) for
  targeted scenarios and tests;
* :func:`mtbf_trace`, a seeded generator drawing failure arrivals from a
  Poisson process at rate ``total_nodes / mtbf`` (each node fails
  independently with the given mean time between failures) and repair
  durations from an exponential with mean ``mttr`` — the standard renewal
  model of the resource-volatility literature.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Iterator

from repro.core.events import EventKind


@dataclass(frozen=True, slots=True)
class NodeFailure:
    """One failure interval: ``nodes`` nodes down over ``[down_time, up_time)``.

    The repair time is part of the event because the simulator's
    information model gives the scheduler a repair ETA the moment the
    failure strikes (the outage becomes a finite capacity reservation in
    the availability profile).
    """

    down_time: float
    up_time: float
    nodes: int

    def __post_init__(self) -> None:
        # NaN passes every comparison below and would stall the event loop
        # (its batch never closes); an infinite repair ends the run at inf.
        if not (math.isfinite(self.down_time) and math.isfinite(self.up_time)):
            raise ValueError(
                "failure times must be finite, got "
                f"down_time={self.down_time}, up_time={self.up_time}"
            )
        if self.down_time < 0:
            raise ValueError(f"down_time must be non-negative, got {self.down_time}")
        if self.up_time <= self.down_time:
            raise ValueError(
                f"up_time {self.up_time} must be after down_time {self.down_time}"
            )
        if self.nodes <= 0:
            raise ValueError(f"nodes must be positive, got {self.nodes}")

    @property
    def duration(self) -> float:
        return self.up_time - self.down_time

    @property
    def node_seconds(self) -> float:
        """Capacity lost to this failure (nodes x outage duration)."""
        return self.nodes * self.duration


class FailureTrace:
    """An immutable, time-sorted sequence of :class:`NodeFailure` events.

    Being immutable, the trace computes its sorted node-event sequence and
    its peak concurrent outage once and keeps them: every cell of a grid
    validates and replays the same trace.  The cached values are derived
    data — no part of equality, hashing, :meth:`fingerprint` or the
    pickled form.
    """

    __slots__ = ("_failures", "_node_events", "_peak_down")

    def __init__(self, failures: Iterable[NodeFailure] = ()) -> None:
        self._failures: tuple[NodeFailure, ...] = tuple(
            sorted(failures, key=lambda f: (f.down_time, f.up_time, f.nodes))
        )
        self._node_events: tuple[tuple, ...] | None = None
        self._peak_down: int | None = None

    def __reduce__(self) -> tuple:
        # Only the failures travel to pool and remote workers; each
        # process derives the cached sweep on first use.
        return (FailureTrace, (self._failures,))

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._failures)

    def __iter__(self) -> Iterator[NodeFailure]:
        return iter(self._failures)

    def __bool__(self) -> bool:
        return bool(self._failures)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FailureTrace):
            return NotImplemented
        return self._failures == other._failures

    def __hash__(self) -> int:
        return hash(self._failures)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FailureTrace({len(self._failures)} failures)"

    @property
    def failures(self) -> tuple[NodeFailure, ...]:
        return self._failures

    # -- aggregate queries ----------------------------------------------------

    def node_events(self) -> "tuple[tuple[float, EventKind, int, NodeFailure], ...]":
        """Both halves of every failure, in the simulator's event order.

        ``(time, kind, sequence, failure)`` tuples sorted by ``(time, kind,
        sequence)``: repairs (``NODE_UP``) apply before failures
        (``NODE_DOWN``) at the same instant, and ``sequence`` (``2i`` for
        the down half of failure ``i``, ``2i + 1`` for its up half) is the
        order in which the python oracle pushes them.
        """
        events = self._node_events
        if events is None:
            entries: list[tuple[float, EventKind, int, NodeFailure]] = []
            for i, f in enumerate(self._failures):
                entries.append((f.down_time, EventKind.NODE_DOWN, 2 * i, f))
                entries.append((f.up_time, EventKind.NODE_UP, 2 * i + 1, f))
            entries.sort()  # sequences are unique: never reaches the payload
            events = self._node_events = tuple(entries)
        return events

    def max_concurrent_down(self) -> int:
        """Peak number of nodes simultaneously down (event sweep)."""
        peak = self._peak_down
        if peak is None:
            down = peak = 0
            for _time, kind, _sequence, f in self.node_events():
                if kind is EventKind.NODE_DOWN:
                    down += f.nodes
                    peak = max(peak, down)
                else:
                    down -= f.nodes
            self._peak_down = peak
        return peak

    def lost_node_seconds(self) -> float:
        """Total capacity removed by the trace, in node-seconds."""
        return sum(f.node_seconds for f in self._failures)

    def capacity_steps(self, total_nodes: int) -> list[tuple[float, int]]:
        """Capacity as ``(time, capacity_from_time)`` breakpoints.

        The implicit capacity before the first breakpoint is
        ``total_nodes``; suitable for
        :meth:`repro.core.schedule.Schedule.validate`'s ``capacity``
        argument.
        """
        deltas: dict[float, int] = {}
        for f in self._failures:
            deltas[f.down_time] = deltas.get(f.down_time, 0) - f.nodes
            deltas[f.up_time] = deltas.get(f.up_time, 0) + f.nodes
        steps: list[tuple[float, int]] = []
        level = total_nodes
        for time in sorted(deltas):
            if deltas[time] == 0:
                continue
            level += deltas[time]
            steps.append((time, level))
        return steps

    def validate_for(self, total_nodes: int) -> None:
        """Raise ``ValueError`` if the trace can down more nodes than exist."""
        peak = self.max_concurrent_down()
        if peak > total_nodes:
            raise ValueError(
                f"failure trace downs up to {peak} concurrent nodes on a "
                f"{total_nodes}-node machine"
            )

    def fingerprint(self) -> str:
        """Deterministic content digest (experiment-engine cache keys)."""
        hasher = hashlib.sha256()
        for f in self._failures:
            hasher.update(f"{f.down_time!r},{f.up_time!r},{f.nodes}\n".encode("ascii"))
        return hasher.hexdigest()


def mtbf_trace(
    *,
    total_nodes: int,
    horizon: float,
    mtbf: float,
    mttr: float,
    seed: int = 0,
    max_nodes_per_failure: int = 1,
    max_down_fraction: float = 0.5,
) -> FailureTrace:
    """Sample a failure trace from per-node MTBF / MTTR statistics.

    Failure arrivals follow a Poisson process at rate ``total_nodes /
    mtbf`` over ``[0, horizon)``; each failure takes ``1 ..
    max_nodes_per_failure`` nodes (uniform) down for an exponential
    duration of mean ``mttr``.  Draws that would push the concurrently-down
    count above ``max_down_fraction * total_nodes`` are skipped, so the
    machine never loses more than that share of its capacity — mirroring a
    site that escalates to emergency maintenance rather than letting the
    whole system rot.  Fully deterministic for a given ``seed``.
    """
    if total_nodes <= 0:
        raise ValueError(f"total_nodes must be positive, got {total_nodes}")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if mtbf <= 0 or mttr <= 0:
        raise ValueError("mtbf and mttr must be positive")
    if not 1 <= max_nodes_per_failure <= total_nodes:
        raise ValueError("max_nodes_per_failure must be in [1, total_nodes]")
    if not 0.0 < max_down_fraction <= 1.0:
        raise ValueError("max_down_fraction must be in (0, 1]")

    rng = random.Random(seed)
    rate = total_nodes / mtbf
    cap = max(1, int(max_down_fraction * total_nodes))
    failures: list[NodeFailure] = []
    # Outages still open at ``t``, for the concurrency cap: a heap of
    # (repair time, nodes) beside the running count of nodes down.
    pending: list[tuple[float, int]] = []
    down = 0
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= horizon:
            break
        nodes = rng.randint(1, max_nodes_per_failure)
        while pending and pending[0][0] <= t:
            down -= heappop(pending)[1]
        if down + nodes > cap:
            continue  # skip: the site would not tolerate a deeper outage
        repair = rng.expovariate(1.0 / mttr)
        failure = NodeFailure(down_time=t, up_time=t + repair, nodes=nodes)
        failures.append(failure)
        heappush(pending, (failure.up_time, nodes))
        down += nodes
    return FailureTrace(failures)
