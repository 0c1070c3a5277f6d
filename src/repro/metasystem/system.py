"""The metasystem co-simulation: shared clock, independent sites.

Each site is a full (machine, scheduler) pair from the core library; the
metasystem advances one global event queue so routing decisions always see
consistent cross-site state.  A job routed away from its *home site*
(``job.meta['home']``) pays ``transfer_delay`` seconds before it becomes
visible to the remote scheduler — the wide-area staging cost of [17].
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.core.events import EventKind, EventQueue
from repro.core.job import Job, validate_stream
from repro.core.machine import Machine
from repro.core.schedule import Schedule, ScheduledJob
from repro.core.scheduler import Scheduler
from repro.core.site import SiteRun
from repro.metasystem.routing import Router, SiteView


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

        Transfer delay is part of the response a user experiences, so the
        per-site records (whose submit times include the delay) are mapped
        back through :attr:`placement` bookkeeping by the caller... the
        simpler exact route: per-site ``ScheduledJob.job`` carries the
        *shifted* submission; the original is preserved in
        ``job.meta['meta_submit']`` when shifting occurred.
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


class _SiteState(SiteRun):
    """One member site's run, plus what the router and the report read."""

    __slots__ = ("site", "routed", "max_queue")

    def __init__(self, site: Site) -> None:
        super().__init__(Machine(site.nodes))
        self.site = site
        site.scheduler.reset()
        self.routed = 0
        self.max_queue = 0

    def submit(self, job: Job) -> None:
        """``job`` becomes visible to this site's scheduler."""
        self.routed += 1
        self.state.note_enqueued(job.nodes)
        self.site.scheduler.on_submit(job, self.ctx)

    def view(self) -> SiteView:
        backlog = sum(
            max(0.0, r.projected_end - self.ctx.now) * r.job.nodes
            for r in self.running.values()
        )
        # The scheduler's queue is opaque: ``pending_count`` gives its
        # length, ``_queued_area`` its area where the policy exposes one.
        return SiteView(
            name=self.site.name,
            total_nodes=self.site.nodes,
            free_nodes=self.machine.free_nodes,
            queue_length=self.site.scheduler.pending_count,
            projected_backlog=backlog + self._queued_area(),
        )

    def _queued_area(self) -> float:
        # OrderPolicy-based schedulers expose their queue through ordered();
        # fall back to zero for exotic schedulers.
        policy = getattr(self.site.scheduler, "order_policy", None)
        if policy is None:
            return 0.0
        return sum(j.estimated_area for j in policy.ordered(self.ctx.now))


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
        validate_stream(list(stream))
        self.router.reset()
        states = {s.name: _SiteState(s) for s in self.sites}

        events = EventQueue()
        placement: dict[int, str] = {}
        migrations = 0
        for job in stream:
            events.push(job.submit_time, EventKind.SUBMISSION, ("route", job))

        while events:
            now = events.peek_time()
            for state in states.values():
                state.ctx.now = now
            touched: set[str] = set()
            while events and events.peek_time() == now:
                event = events.pop()
                if event.kind is EventKind.COMPLETION:
                    site_name, item = event.payload
                    state = states[site_name]
                    state.finish(item)
                    state.site.scheduler.on_complete(item.job, state.ctx)
                    touched.add(site_name)
                    continue
                kind, payload = event.payload
                if kind == "route":
                    job = payload
                    views = [states[s.name].view() for s in self.sites]
                    target = self.router.route(job, views)
                    if target not in states:
                        raise ValueError(f"router returned unknown site {target!r}")
                    placement[job.job_id] = target
                    if target != job.meta.get("home", target):
                        migrations += 1
                        if self.transfer_delay > 0:
                            shifted = _shift(job, self.transfer_delay)
                            events.push(
                                shifted.submit_time,
                                EventKind.SUBMISSION,
                                ("arrive", (target, shifted)),
                            )
                            continue
                else:  # staged arrival at the remote site
                    target, job = payload
                states[target].submit(job)
                touched.add(target)

            for name in touched:
                state = states[name]
                for job in state.site.scheduler.select_jobs(state.ctx):
                    item = state.start(job, now)
                    events.push(item.end_time, EventKind.COMPLETION, (name, item))
                state.max_queue = max(state.max_queue, state.site.scheduler.pending_count)

        results = {}
        for name, state in states.items():
            if state.running:
                raise RuntimeError(f"site {name} finished with running jobs")
            schedule = Schedule(state.completed)
            schedule.validate(state.site.nodes)
            results[name] = SiteResult(
                site_name=name,
                schedule=schedule,
                jobs_routed=state.routed,
                max_queue_length=state.max_queue,
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
