"""The metasystem co-simulation: shared clock, independent sites.

Each site is the simulator's own run
(:class:`~repro.core.simulator.SimulationRun`) of its (machine, scheduler)
pair; all runs share one event heap, so routing decisions always see
consistent cross-site state.  The metasystem routes and dispatches; the
runs handle the events and decide.  A job routed away from its *home
site* (``job.meta['home']``) pays ``transfer_delay`` seconds before it
becomes visible to the remote scheduler — the wide-area staging cost of
[17].
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.core.events import EventKind, EventQueue, MergedEventFeed, static_timeline
from repro.core.job import Job, validate_stream
from repro.core.machine import Machine
from repro.core.schedule import Schedule, ScheduledJob
from repro.core.scheduler import Scheduler
from repro.core.simulator import SimulationRun, Simulator
from repro.metasystem.routing import Router, SiteView

_SUBMISSION = EventKind.SUBMISSION


@dataclass(slots=True)
class Site:
    """One member machine of the metasystem."""

    name: str
    nodes: int
    scheduler: Scheduler

    def __post_init__(self) -> None:
        if self.nodes <= 0:
            raise ValueError(f"site {self.name!r} needs positive nodes")


@dataclass(slots=True)
class SiteResult:
    """Per-site outcome."""

    site_name: str
    schedule: Schedule
    jobs_routed: int
    max_queue_length: int


@dataclass(slots=True)
class MetasystemResult:
    """Global outcome of a metasystem run."""

    sites: dict[str, SiteResult]
    #: job_id -> site name, as routed.
    placement: dict[int, str] = field(default_factory=dict)
    #: jobs placed away from their home site.
    migrations: int = 0

    def all_items(self) -> list[ScheduledJob]:
        out: list[ScheduledJob] = []
        for result in self.sites.values():
            out.extend(result.schedule)
        return out

    def global_art(self) -> float:
        """ART over all jobs, response measured from *original* submission.

        Transfer delay is part of the response a user experiences.  A
        migrated job's per-site record carries the *shifted* submission
        (original plus delay); the original is kept in
        ``job.meta['meta_submit']``, and the response is measured from it.
        """
        items = self.all_items()
        if not items:
            return 0.0
        total = 0.0
        for item in items:
            submit = float(item.job.meta.get("meta_submit", item.job.submit_time))
            total += item.end_time - submit
        return total / len(items)

    def balance(self) -> float:
        """Imbalance measure: max over min jobs routed per site (>= 1)."""
        counts = [r.jobs_routed for r in self.sites.values()]
        low = min(counts)
        return max(counts) / low if low else float("inf")


class _Member:
    """One member site's on-line run, plus what the router and the report read."""

    __slots__ = ("site", "run", "handlers", "routed")

    def __init__(self, site: Site, events: EventQueue) -> None:
        self.site = site
        self.run = SimulationRun(
            Simulator(Machine(site.nodes), site.scheduler), events=events
        )
        self.handlers = self.run.handlers()
        self.routed = 0

    def submit(self, job: Job) -> None:
        """``job`` becomes visible to this site's scheduler."""
        self.routed += 1
        self.handlers[_SUBMISSION](job)

    def view(self) -> SiteView:
        now = self.run.ctx.now
        backlog = sum(
            max(0.0, r.projected_end - now) * r.job.nodes
            for r in self.run.site.running.values()
        )
        # The scheduler's queue is opaque: ``pending_count`` gives its
        # length, ``_queued_area`` its area where the policy exposes one.
        return SiteView(
            name=self.site.name,
            total_nodes=self.site.nodes,
            free_nodes=self.run.site.machine.free_nodes,
            queue_length=self.site.scheduler.pending_count,
            projected_backlog=backlog + self._queued_area(),
        )

    def _queued_area(self) -> float:
        # OrderPolicy-based schedulers expose their queue store; reading
        # it leaves the site's order (and a RANDOM site's draws) alone,
        # where ``ordered()`` may recompute it.  Zero for exotic schedulers.
        policy = getattr(self.site.scheduler, "order_policy", None)
        if policy is None:
            return 0.0
        return sum(j.estimated_area for j in policy.queue)


class Metasystem:
    """Co-simulate a router and a set of sites over one job stream."""

    def __init__(
        self,
        sites: Sequence[Site],
        router: Router,
        *,
        transfer_delay: float = 0.0,
    ) -> None:
        if not sites:
            raise ValueError("need at least one site")
        names = [s.name for s in sites]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate site names: {names}")
        if transfer_delay < 0:
            raise ValueError("transfer_delay must be non-negative")
        self.sites = list(sites)
        self.router = router
        self.transfer_delay = transfer_delay

    def run(self, jobs: Sequence[Job]) -> MetasystemResult:
        stream = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
        validate_stream(stream)
        self.router.reset()
        events = EventQueue()
        members = {s.name: _Member(s, events) for s in self.sites}
        by_run = {member.run: member for member in members.values()}
        # The original submissions are the static timeline.  A submission
        # of a job not placed yet is routed; one already placed is its
        # staged arrival.
        feed = MergedEventFeed(
            events, *static_timeline(stream, [job.submit_time for job in stream])
        )
        placement: dict[int, str] = {}
        migrations = 0

        while feed:
            now = feed.peek_time()
            for member in members.values():
                member.run.ctx.now = now
            touched: dict[_Member, None] = {}
            while feed and feed.peek_time() == now:
                kind, payload = feed.pop_next()
                if kind is _SUBMISSION:
                    job = payload
                    target = placement.get(job.job_id)
                    if target is None:
                        views = [m.view() for m in members.values()]
                        target = self.router.route(job, views)
                        if target not in members:
                            raise ValueError(f"router returned unknown site {target!r}")
                        placement[job.job_id] = target
                        if target != job.meta.get("home", target):
                            migrations += 1
                            if self.transfer_delay > 0:
                                shifted = _shift(job, self.transfer_delay)
                                events.push(shifted.submit_time, _SUBMISSION, shifted)
                                continue
                    member = members[target]
                    member.submit(job)
                else:
                    if kind is EventKind.TIMER:
                        member = by_run[payload]
                    else:  # a completion
                        member = members[placement[payload.job.job_id]]
                    member.handlers[kind](payload)
                touched[member] = None
            for member in touched:
                member.run.decide()

        results = {}
        for name, member in members.items():
            outcome = member.run.result()  # raises on jobs left running or queued
            outcome.schedule.validate(member.site.nodes)
            results[name] = SiteResult(
                site_name=name,
                schedule=outcome.schedule,
                jobs_routed=member.routed,
                max_queue_length=outcome.max_queue_length,
            )
        return MetasystemResult(
            sites=results, placement=placement, migrations=migrations
        )


def _shift(job: Job, delay: float) -> Job:
    """Delay a job's visibility at the remote site, remembering the original
    submission for response-time accounting."""
    meta = dict(job.meta)
    meta.setdefault("meta_submit", job.submit_time)
    return replace(job, submit_time=job.submit_time + delay, meta=meta)
