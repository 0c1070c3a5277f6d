"""Tests for the multi-site metasystem ([17])."""

import pytest

from repro.core.job import Job
from repro.metasystem import (
    BestFitRouter,
    HomeSiteRouter,
    LeastLoadedRouter,
    Metasystem,
    RandomRouter,
    RoundRobinRouter,
    Site,
    SiteView,
)
from repro.schedulers.base import SubmitOrderPolicy
from repro.schedulers.disciplines import HeadBlockingDiscipline
from repro.schedulers.drain import DrainingScheduler, Reservation
from repro.schedulers.fcfs import FCFSScheduler
from repro.schedulers.garey_graham import GareyGrahamScheduler
from tests.conftest import StarvingScheduler, make_jobs


def J(job_id, submit, nodes, runtime, home=None):
    meta = {"home": home} if home else {}
    return Job(job_id=job_id, submit_time=submit, nodes=nodes, runtime=runtime, meta=meta)


def two_sites(nodes_a=32, nodes_b=32):
    return [
        Site("a", nodes_a, GareyGrahamScheduler()),
        Site("b", nodes_b, GareyGrahamScheduler()),
    ]


def view(name, total, free=None, queue=0, backlog=0.0):
    return SiteView(
        name=name,
        total_nodes=total,
        free_nodes=total if free is None else free,
        queue_length=queue,
        projected_backlog=backlog,
    )


class TestRouters:
    def test_round_robin_cycles(self):
        router = RoundRobinRouter()
        views = [view("a", 32), view("b", 32)]
        job = J(0, 0.0, 4, 10.0)
        assert [router.route(job, views) for _ in range(4)] == ["a", "b", "a", "b"]

    def test_round_robin_reset(self):
        router = RoundRobinRouter()
        views = [view("a", 32), view("b", 32)]
        router.route(J(0, 0.0, 4, 10.0), views)
        router.reset()
        assert router.route(J(1, 0.0, 4, 10.0), views) == "a"

    def test_least_loaded_picks_lowest_relative_backlog(self):
        router = LeastLoadedRouter()
        views = [view("a", 32, backlog=3200.0), view("b", 64, backlog=3200.0)]
        # relative: a=100, b=50.
        assert router.route(J(0, 0.0, 4, 10.0), views) == "b"

    def test_best_fit_prefers_smallest_feasible(self):
        router = BestFitRouter()
        views = [view("big", 256), view("small", 16)]
        assert router.route(J(0, 0.0, 8, 10.0), views) == "small"
        assert router.route(J(1, 0.0, 64, 10.0), views) == "big"

    def test_infeasible_everywhere_raises(self):
        with pytest.raises(ValueError, match="fits no site"):
            LeastLoadedRouter().route(J(0, 0.0, 512, 1.0), [view("a", 256)])

    def test_random_router_seeded(self):
        r1, r2 = RandomRouter(seed=3), RandomRouter(seed=3)
        views = [view("a", 32), view("b", 32)]
        picks1 = [r1.route(J(i, 0.0, 1, 1.0), views) for i in range(10)]
        picks2 = [r2.route(J(i, 0.0, 1, 1.0), views) for i in range(10)]
        assert picks1 == picks2

    def test_home_router_stays_home_when_ok(self):
        router = HomeSiteRouter(overflow_factor=2.0)
        views = [view("a", 32, backlog=3200.0), view("b", 32, backlog=0.0)]
        job = J(0, 0.0, 4, 10.0, home="a")
        # home relative backlog 100 > 2 * 0 -> overflow to b.
        assert router.route(job, views) == "b"
        calm = [view("a", 32, backlog=320.0), view("b", 32, backlog=320.0)]
        assert router.route(job, calm) == "a"

    def test_home_router_validation(self):
        with pytest.raises(ValueError):
            HomeSiteRouter(overflow_factor=0.0)


class TestMetasystem:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            Metasystem([], RoundRobinRouter())
        with pytest.raises(ValueError, match="duplicate"):
            Metasystem(
                [Site("a", 8, FCFSScheduler.plain()), Site("a", 8, FCFSScheduler.plain())],
                RoundRobinRouter(),
            )
        with pytest.raises(ValueError, match="transfer_delay"):
            Metasystem(two_sites(), RoundRobinRouter(), transfer_delay=-1.0)
        with pytest.raises(ValueError, match="positive nodes"):
            Site("x", 0, FCFSScheduler.plain())

    def test_all_jobs_complete_somewhere(self):
        jobs = make_jobs(50, seed=41, max_nodes=32)
        result = Metasystem(two_sites(), RoundRobinRouter()).run(jobs)
        total = sum(len(r.schedule) for r in result.sites.values())
        assert total == 50
        assert set(result.placement) == {j.job_id for j in jobs}

    def test_round_robin_balances_counts(self):
        jobs = make_jobs(60, seed=42, max_nodes=32)
        result = Metasystem(two_sites(), RoundRobinRouter()).run(jobs)
        assert result.balance() <= 1.1

    def test_least_loaded_beats_random_on_art(self):
        jobs = make_jobs(120, seed=43, max_nodes=32, mean_gap=30.0)
        meta_ll = Metasystem(two_sites(), LeastLoadedRouter()).run(jobs)
        meta_rand = Metasystem(two_sites(), RandomRouter(seed=1)).run(jobs)
        assert meta_ll.global_art() <= meta_rand.global_art() * 1.1

    def test_wide_jobs_only_on_big_site(self):
        sites = [Site("small", 16, FCFSScheduler.plain()),
                 Site("big", 256, FCFSScheduler.plain())]
        jobs = [J(0, 0.0, 100, 10.0), J(1, 0.0, 8, 10.0)]
        result = Metasystem(sites, BestFitRouter()).run(jobs)
        assert result.placement[0] == "big"
        assert result.placement[1] == "small"

    def test_transfer_delay_applies_to_migrations_only(self):
        sites = two_sites()
        router = HomeSiteRouter(overflow_factor=0.5)  # eager offloading
        jobs = [
            J(0, 0.0, 32, 1000.0, home="a"),   # saturates a
            J(1, 1.0, 8, 10.0, home="a"),      # overflows to b, pays delay
        ]
        result = Metasystem(sites, router, transfer_delay=60.0).run(jobs)
        assert result.placement[1] == "b"
        assert result.migrations == 1
        item = result.sites["b"].schedule[1]
        assert item.start_time >= 61.0
        # global ART accounts the original submission.
        assert result.global_art() > 0

    def test_home_job_pays_no_delay(self):
        sites = two_sites()
        jobs = [J(0, 0.0, 8, 10.0, home="a")]
        result = Metasystem(sites, HomeSiteRouter()).run(jobs)
        assert result.sites["a"].schedule[0].start_time == 0.0

    def test_migration_counted_even_without_delay(self):
        sites = two_sites()
        router = RoundRobinRouter()
        jobs = [J(0, 0.0, 8, 10.0, home="b")]  # RR sends it to "a"
        result = Metasystem(sites, router).run(jobs)
        assert result.placement[0] == "a"
        assert result.migrations == 1

    def test_site_schedules_validated(self):
        jobs = make_jobs(40, seed=44, max_nodes=24)
        result = Metasystem(two_sites(24, 48), LeastLoadedRouter()).run(jobs)
        # .run() already validates; double-check manually.
        for name, site_result in result.sites.items():
            nodes = 24 if name == "a" else 48
            site_result.schedule.validate(nodes)

    def test_pinned_two_site_digest(self):
        """Bit-level pin of one seeded run (recorded before the loop moved
        onto the shared site object): two backfilling sites, eager
        offloading, a positive transfer delay."""
        from dataclasses import replace

        from tests.conftest import schedule_digest

        jobs = [
            replace(j, meta={"home": "a" if j.job_id % 3 else "b"})
            for j in make_jobs(300, seed=97, max_nodes=32, mean_gap=20.0)
        ]
        sites = [
            Site("a", 32, FCFSScheduler.with_easy()),
            Site("b", 48, FCFSScheduler.with_conservative()),
        ]
        result = Metasystem(
            sites, HomeSiteRouter(overflow_factor=1.5), transfer_delay=45.0
        ).run(jobs)
        assert result.migrations == 47
        a, b = result.sites["a"], result.sites["b"]
        assert (a.jobs_routed, a.max_queue_length) == (153, 121)
        assert (b.jobs_routed, b.max_queue_length) == (147, 114)
        assert schedule_digest(a.schedule) == (
            "f780070e3e1690141ea2e54ac0088c00914e834949b7bb5258e80664319bfa66"
        )
        assert schedule_digest(b.schedule) == (
            "8bb642ce2f4278a3ec5b3607eabe928478342db666c956c7122dd8e4975a3e27"
        )

    def test_drain_site_starts_the_job_at_the_reservation_end(self):
        """A site's wake-up timer fires on the shared heap: the job
        submitted inside the reservation starts the instant it ends."""
        drain = DrainingScheduler(
            SubmitOrderPolicy(), HeadBlockingDiscipline(), [Reservation(50.0, 100.0)]
        )
        sites = [Site("a", 16, drain), Site("b", 16, FCFSScheduler.plain())]
        jobs = [J(0, 60.0, 4, 10.0, home="a"), J(1, 70.0, 4, 10.0, home="b")]
        result = Metasystem(sites, HomeSiteRouter()).run(jobs)
        assert len(result.sites["a"].schedule) == 1
        assert result.sites["a"].schedule[0].start_time == 100.0
        assert result.sites["b"].schedule[1].start_time == 70.0

    def test_a_starving_site_raises(self):
        sites = [Site("a", 16, StarvingScheduler()), Site("b", 16, FCFSScheduler.plain())]
        jobs = [J(0, 0.0, 4, 10.0), J(1, 1.0, 4, 10.0)]
        with pytest.raises(RuntimeError, match="1 jobs still queued"):
            Metasystem(sites, RoundRobinRouter()).run(jobs)

    @pytest.mark.parametrize("order", ["smart", "psrs", "random"])
    def test_reading_a_site_leaves_its_queue_order_alone(self, order):
        """The router's view sums the queued area without asking the site
        for its service order, which would recompute a SMART or PSRS
        order early and use up a RANDOM site's draws."""
        from repro.core.events import EventQueue
        from repro.metasystem.system import _Member
        from repro.schedulers.base import OrderedQueueScheduler
        from repro.schedulers.baselines import RandomOrderPolicy
        from repro.schedulers.psrs import PsrsOrderPolicy
        from repro.schedulers.smart import SmartOrderPolicy

        policies = {
            "smart": lambda: SmartOrderPolicy(16),
            "psrs": lambda: PsrsOrderPolicy(16),
            "random": lambda: RandomOrderPolicy(seed=5),
        }
        jobs = [J(i, 0.0, 1 + 3 * i % 7, 100.0 * (4 - i)) for i in range(4)]

        def site():
            policy = policies[order]()
            member = _Member(
                Site(order, 16, OrderedQueueScheduler(policy, HeadBlockingDiscipline())),
                EventQueue(),
            )
            for job in jobs:
                member.submit(job)
            return member, policy

        viewed, policy = site()
        views = [viewed.view(), viewed.view()]
        assert views[0] == views[1]
        assert views[0].projected_backlog == sum(j.estimated_area for j in jobs)
        assert getattr(policy, "recompute_count", 0) == 0
        _, twin = site()
        assert [j.job_id for j in policy.ordered(1.0)] == [
            j.job_id for j in twin.ordered(1.0)
        ]
