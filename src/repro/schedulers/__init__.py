"""The paper's scheduler zoo.

Section 5 of the paper evaluates seven algorithm families, each reduced to
two orthogonal choices:

* an **order policy** — how the wait queue is ordered (submission order for
  FCFS and Garey & Graham; SMART-FFIA / SMART-NFIW shelf orders; the PSRS
  non-preemptive conversion order), and
* a **servicing discipline** — how the ordered queue is turned into start
  decisions (head-blocking greedy list scheduling, conservative
  backfilling, EASY backfilling, or Garey & Graham's any-fit greedy).

Every cell of the paper's Tables 3–6 is one ``(order policy, discipline)``
pair; :mod:`repro.schedulers.registry` enumerates them all.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.schedulers.base import (
        Discipline,
        OrderPolicy,
        OrderedQueueScheduler,
        SubmitOrderPolicy,
    )
    from repro.schedulers.disciplines import (
        AnyFitDiscipline,
        ConservativeBackfill,
        EasyBackfill,
        HeadBlockingDiscipline,
    )
    from repro.schedulers.fcfs import FCFSScheduler
    from repro.schedulers.garey_graham import GareyGrahamScheduler
    from repro.schedulers.smart import (
        SmartOrderPolicy,
        smart_order,
        SmartVariant,
    )
    from repro.schedulers.psrs import PsrsOrderPolicy, psrs_order, preemptive_psrs
    from repro.schedulers.weights import area_weight, unit_weight
    from repro.schedulers.registry import (
        SchedulerConfig,
        build_scheduler,
        paper_configurations,
        register_discipline,
        register_row,
        registered_columns,
        registered_configurations,
        registered_rows,
        unregister_row,
    )
    from repro.schedulers.baselines import (
        KeyOrderPolicy,
        RandomOrderPolicy,
        baseline_scheduler,
    )
    from repro.schedulers.regimes import (
        WEEKDAY_DAYTIME,
        RegimeSwitchingScheduler,
        TimeWindow,
        example5_combined_scheduler,
    )
    from repro.schedulers.drain import (
        DrainDiscipline,
        DrainingScheduler,
        Reservation,
        example4_reservations,
    )
    from repro.schedulers.slack import SlackBackfill
    from repro.schedulers.admission import (
        ClassPriorityOrderPolicy,
        UserLimitDiscipline,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    ".base": (
        "Discipline", "OrderPolicy", "OrderedQueueScheduler",
        "SubmitOrderPolicy",
    ),
    ".disciplines": (
        "AnyFitDiscipline", "ConservativeBackfill", "EasyBackfill",
        "HeadBlockingDiscipline",
    ),
    ".fcfs": ("FCFSScheduler",),
    ".garey_graham": ("GareyGrahamScheduler",),
    ".smart": ("SmartOrderPolicy", "smart_order", "SmartVariant"),
    ".psrs": ("PsrsOrderPolicy", "psrs_order", "preemptive_psrs"),
    ".weights": ("area_weight", "unit_weight"),
    ".registry": (
        "SchedulerConfig", "build_scheduler", "paper_configurations",
        "register_discipline", "register_row", "registered_columns",
        "registered_configurations", "registered_rows",
        "unregister_row",
    ),
    ".baselines": (
        "KeyOrderPolicy", "RandomOrderPolicy", "baseline_scheduler",
    ),
    ".regimes": (
        "WEEKDAY_DAYTIME", "RegimeSwitchingScheduler", "TimeWindow",
        "example5_combined_scheduler",
    ),
    ".drain": (
        "DrainDiscipline", "DrainingScheduler", "Reservation",
        "example4_reservations",
    ),
    ".slack": ("SlackBackfill",),
    ".admission": ("ClassPriorityOrderPolicy", "UserLimitDiscipline"),
})

__all__ = [
    "AnyFitDiscipline",
    "ClassPriorityOrderPolicy",
    "ConservativeBackfill",
    "Discipline",
    "DrainDiscipline",
    "DrainingScheduler",
    "EasyBackfill",
    "FCFSScheduler",
    "GareyGrahamScheduler",
    "HeadBlockingDiscipline",
    "KeyOrderPolicy",
    "OrderPolicy",
    "OrderedQueueScheduler",
    "PsrsOrderPolicy",
    "RandomOrderPolicy",
    "RegimeSwitchingScheduler",
    "Reservation",
    "SchedulerConfig",
    "SlackBackfill",
    "SmartOrderPolicy",
    "SmartVariant",
    "SubmitOrderPolicy",
    "UserLimitDiscipline",
    "TimeWindow",
    "WEEKDAY_DAYTIME",
    "area_weight",
    "baseline_scheduler",
    "build_scheduler",
    "example4_reservations",
    "example5_combined_scheduler",
    "paper_configurations",
    "preemptive_psrs",
    "psrs_order",
    "register_discipline",
    "register_row",
    "registered_columns",
    "registered_configurations",
    "registered_rows",
    "smart_order",
    "unit_weight",
    "unregister_row",
]
