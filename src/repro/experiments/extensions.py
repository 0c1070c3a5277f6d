"""Extension experiments: the paper's loose ends as runnable artifacts.

Each entry mirrors the shape of :mod:`repro.experiments.paper` — an id, a
description, a run function returning a text report plus a machine-usable
result dict — so the CLI can regenerate them alongside the tables:

========= ===========================================================
id        claim quantified
========= ===========================================================
ext-gang      gang scheduling rescues FCFS ([15]); unbounded MPL thrashes
ext-combined  the Section 7 day/night combination, scored per window
ext-drain     Example 4's drain windows under three estimate regimes
ext-bounds    Section 2.3 lower-bound headroom of the paper's winners
ext-closedloop Section 2.4: better service elicits more submitted work
ext-meta      [17]: routing policies over a three-site metasystem
========= ===========================================================

``repro-experiments ext-gang`` etc. run them from the shell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.experiments.paper import ctc_workload
from repro.metrics.objectives import average_response_time, utilisation

NODES = 256


@dataclass(slots=True)
class ExtensionResult:
    """Outcome of one extension experiment."""

    experiment_id: str
    report: str
    values: dict[str, float]
    #: True when the experiment's headline claim held in this run.
    claim_holds: bool


@dataclass(frozen=True, slots=True)
class ExtensionSpec:
    experiment_id: str
    description: str
    run: Callable[[int, int], ExtensionResult]
    default_scale: int = 800


def _gang(scale: int, seed: int) -> ExtensionResult:
    from repro.core.simulator import simulate
    from repro.gang import fcfs_gang_schedule
    from repro.schedulers.fcfs import FCFSScheduler

    jobs = ctc_workload(scale, seed=seed)
    values = {
        "fcfs": average_response_time(
            simulate(jobs, FCFSScheduler.plain(), NODES).schedule
        ),
        "fcfs+easy": average_response_time(
            simulate(jobs, FCFSScheduler.with_easy(), NODES).schedule
        ),
        "gang-2": fcfs_gang_schedule(jobs, NODES, max_slots=2).average_response_time(),
        "gang-inf": fcfs_gang_schedule(jobs, NODES).average_response_time(),
    }
    lines = ["Gang scheduling vs space sharing ([15]) — unweighted ART"]
    for key, value in values.items():
        lines.append(f"  {key:<10} {value:12.0f}")
    holds = values["gang-2"] < values["fcfs"] and values["gang-2"] < values["gang-inf"]
    return ExtensionResult("ext-gang", "\n".join(lines), values, holds)


def _combined(scale: int, seed: int) -> ExtensionResult:
    from repro.core.simulator import simulate
    from repro.metrics.windows import windowed_art, windowed_awrt
    from repro.schedulers.base import OrderedQueueScheduler
    from repro.schedulers.disciplines import EasyBackfill
    from repro.schedulers.garey_graham import GareyGrahamScheduler
    from repro.schedulers.regimes import WEEKDAY_DAYTIME, example5_combined_scheduler
    from repro.schedulers.smart import SmartOrderPolicy, SmartVariant
    from repro.schedulers.weights import unit_weight

    jobs = ctc_workload(scale, seed=seed)

    def smart_easy():
        return OrderedQueueScheduler(
            SmartOrderPolicy(NODES, variant=SmartVariant.FFIA, weight=unit_weight),
            EasyBackfill(),
            name="smart-easy",
        )

    values: dict[str, float] = {}
    for label, factory in (
        ("day-winner", smart_easy),
        ("night-winner", GareyGrahamScheduler),
        ("combined", lambda: example5_combined_scheduler(NODES)),
    ):
        res = simulate(jobs, factory(), NODES)
        values[f"{label}.day_art"] = windowed_art(res.schedule, WEEKDAY_DAYTIME)
        values[f"{label}.night_awrt"] = windowed_awrt(res.schedule, WEEKDAY_DAYTIME)
    lines = ["Combined day/night scheduler (Section 7)"]
    for label in ("day-winner", "night-winner", "combined"):
        lines.append(
            f"  {label:<14} day ART {values[f'{label}.day_art']:>10.0f}   "
            f"night AWRT {values[f'{label}.night_awrt']:.3E}"
        )
    holds = (
        values["combined.day_art"]
        <= max(values["day-winner.day_art"], values["night-winner.day_art"])
        and values["combined.night_awrt"]
        <= max(values["day-winner.night_awrt"], values["night-winner.night_awrt"])
    )
    return ExtensionResult("ext-combined", "\n".join(lines), values, holds)


def _drain(scale: int, seed: int) -> ExtensionResult:
    from repro.core.simulator import simulate
    from repro.schedulers.base import SubmitOrderPolicy
    from repro.schedulers.disciplines import EasyBackfill
    from repro.schedulers.drain import DrainingScheduler, example4_reservations
    from repro.workloads.transforms import with_exact_estimates

    base = ctc_workload(scale, seed=seed)
    reservations = example4_reservations()

    def run(jobs):
        scheduler = DrainingScheduler(SubmitOrderPolicy(), EasyBackfill(), reservations)
        return simulate(jobs, scheduler, NODES)

    truthful = run(with_exact_estimates(base))
    loose = run(base)
    values = {
        "truthful.util": utilisation(truthful.schedule, NODES),
        "loose.util": utilisation(loose.schedule, NODES),
        "truthful.art": average_response_time(truthful.schedule),
        "loose.art": average_response_time(loose.schedule),
    }
    lines = ["Example 4 drain windows: estimate accuracy vs utilisation"]
    lines.append(f"  truthful estimates: util {values['truthful.util']:.1%}, ART {values['truthful.art']:.0f}")
    lines.append(f"  loose estimates:    util {values['loose.util']:.1%}, ART {values['loose.art']:.0f}")
    holds = values["truthful.util"] >= values["loose.util"]
    return ExtensionResult("ext-drain", "\n".join(lines), values, holds)


def _bounds(scale: int, seed: int) -> ExtensionResult:
    from repro.core.simulator import simulate
    from repro.metrics.bounds import improvement_potential
    from repro.schedulers.fcfs import FCFSScheduler
    from repro.schedulers.garey_graham import GareyGrahamScheduler

    jobs = ctc_workload(scale, seed=seed)
    values: dict[str, float] = {}
    lines = ["Section 2.3 lower-bound headroom (unweighted ART)"]
    holds = True
    for label, factory in (
        ("fcfs+easy", FCFSScheduler.with_easy),
        ("gg", GareyGrahamScheduler),
    ):
        res = simulate(jobs, factory(), NODES)
        p = improvement_potential(res.schedule, jobs, NODES)
        values[f"{label}.ratio"] = p.ratio
        values[f"{label}.headroom"] = p.headroom
        holds = holds and p.ratio >= 1.0 - 1e-9
        lines.append(
            f"  {label:<10} measured {p.measured:>10.0f}  bound {p.lower_bound:>10.0f}"
            f"  ratio {p.ratio:5.2f}  headroom {p.headroom:5.1%}"
        )
    return ExtensionResult("ext-bounds", "\n".join(lines), values, holds)


def _closed_loop(scale: int, seed: int) -> ExtensionResult:
    from repro.schedulers.fcfs import FCFSScheduler
    from repro.schedulers.garey_graham import GareyGrahamScheduler
    from repro.workloads.feedback import default_population, run_closed_loop

    # scale controls the population; horizon fixed at four days.
    population = default_population(max(8, scale // 50), seed=seed, mean_think_time=900.0)
    values: dict[str, float] = {}
    for label, factory in (("fcfs", FCFSScheduler.plain), ("gg", GareyGrahamScheduler)):
        result = run_closed_loop(population, factory(), 128, horizon=4 * 86_400.0, seed=seed + 1)
        values[label] = float(result.total_jobs)
    lines = ["Section 2.4 closed loop: jobs elicited from the same users"]
    for label, count in values.items():
        lines.append(f"  {label:<6} {count:.0f}")
    return ExtensionResult(
        "ext-closedloop", "\n".join(lines), values, values["gg"] >= values["fcfs"]
    )


def _metasystem(scale: int, seed: int) -> ExtensionResult:
    from dataclasses import replace

    from repro.metasystem import (
        HomeSiteRouter,
        LeastLoadedRouter,
        Metasystem,
        RandomRouter,
        RoundRobinRouter,
        Site,
    )
    from repro.schedulers.fcfs import FCFSScheduler
    from repro.schedulers.garey_graham import GareyGrahamScheduler

    homes = ("alpha", "beta", "gamma")
    jobs = [
        replace(j, meta={"home": homes[j.user % 3]})
        for j in ctc_workload(scale, seed=seed)
    ]

    def sites():
        return [
            Site("alpha", 256, GareyGrahamScheduler()),
            Site("beta", 128, FCFSScheduler.with_easy()),
            Site("gamma", 64, FCFSScheduler.with_easy()),
        ]

    values: dict[str, float] = {}
    lines = ["Metasystem routing ([17]): global ART / migrations"]
    for router in (
        RoundRobinRouter(),
        RandomRouter(seed=seed),
        LeastLoadedRouter(),
        HomeSiteRouter(overflow_factor=2.0),
    ):
        result = Metasystem(sites(), router, transfer_delay=120.0).run(jobs)
        values[f"{router.name}.art"] = result.global_art()
        values[f"{router.name}.migrations"] = float(result.migrations)
        lines.append(
            f"  {router.name:<14} ART {result.global_art():>10.0f}"
            f"   migrations {result.migrations}"
        )
    holds = (
        values["least-loaded.art"] < values["round-robin.art"]
        and values["home-overflow.migrations"] < values["round-robin.migrations"]
    )
    return ExtensionResult("ext-meta", "\n".join(lines), values, holds)


EXTENSIONS: dict[str, ExtensionSpec] = {
    spec.experiment_id: spec
    for spec in (
        ExtensionSpec("ext-gang", "Gang scheduling vs space sharing ([15])", _gang),
        ExtensionSpec("ext-combined", "Section 7 combined day/night scheduler", _combined),
        ExtensionSpec("ext-drain", "Example 4 drain windows", _drain),
        ExtensionSpec("ext-bounds", "Section 2.3 lower-bound headroom", _bounds),
        ExtensionSpec("ext-closedloop", "Section 2.4 closed-loop coupling", _closed_loop),
        ExtensionSpec("ext-meta", "Metasystem routing ([17])", _metasystem),
    )
}


def run_extension(
    experiment_id: str, *, scale: int | None = None, seed: int = 42
) -> ExtensionResult:
    """Run one extension experiment by id."""
    spec = EXTENSIONS[experiment_id]
    return spec.run(spec.default_scale if scale is None else scale, seed)
