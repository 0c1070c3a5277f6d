"""Workload substrate: traces, models and generators (Section 6).

The paper evaluates on three workloads (Table 1):

* the **CTC trace** — 79,164 batch jobs from the Cornell Theory Center SP2,
  July 1996 – May 1997, with jobs wider than 256 nodes removed;
* a **probability-distribution workload** — 50,000 jobs sampled from a
  Weibull interarrival fit plus binned (nodes, requested time, runtime)
  histograms extracted from the CTC trace (Section 6.2);
* a **randomized workload** — 50,000 jobs with uniformly distributed
  parameters per Table 2 (Section 6.3).

We do not ship the proprietary CTC trace; :mod:`repro.workloads.swf` reads
the real thing (Standard Workload Format, as published in Feitelson's
Parallel Workloads Archive) if you have it, and
:mod:`repro.workloads.ctc` generates a calibrated synthetic stand-in with
the same shape properties (see DESIGN.md, substitution 1).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.swf import (
        ParseReport,
        SWFField,
        parse_swf,
        read_swf,
        read_swf_with_header,
        write_swf,
    )
    from repro.workloads.ctc import CTCModel, ctc_like_workload
    from repro.workloads.probabilistic import ProbabilisticModel
    from repro.workloads.randomized import RandomizedModel, randomized_workload
    from repro.workloads.transforms import (
        cap_nodes,
        renumber,
        scale_interarrival,
        take_prefix,
        with_exact_estimates,
        with_scaled_estimates,
    )
    from repro.workloads.stats import WorkloadStats, workload_stats
    from repro.workloads.goodness import (
        KSResult,
        compare_interarrival_models,
        ks_test,
        weibull_ks,
    )
    from repro.workloads.feedback import (
        ClosedLoopResult,
        UserProfile,
        default_population,
        run_closed_loop,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    ".swf": (
        "ParseReport", "SWFField", "parse_swf", "read_swf",
        "read_swf_with_header", "write_swf",
    ),
    ".ctc": ("CTCModel", "ctc_like_workload"),
    ".probabilistic": ("ProbabilisticModel",),
    ".randomized": ("RandomizedModel", "randomized_workload"),
    ".transforms": (
        "cap_nodes", "renumber", "scale_interarrival", "take_prefix",
        "with_exact_estimates", "with_scaled_estimates",
    ),
    ".stats": ("WorkloadStats", "workload_stats"),
    ".goodness": (
        "KSResult", "compare_interarrival_models", "ks_test",
        "weibull_ks",
    ),
    ".feedback": (
        "ClosedLoopResult", "UserProfile", "default_population",
        "run_closed_loop",
    ),
})

__all__ = [
    "CTCModel",
    "ClosedLoopResult",
    "KSResult",
    "ParseReport",
    "ProbabilisticModel",
    "RandomizedModel",
    "SWFField",
    "UserProfile",
    "WorkloadStats",
    "cap_nodes",
    "compare_interarrival_models",
    "ctc_like_workload",
    "default_population",
    "ks_test",
    "parse_swf",
    "randomized_workload",
    "read_swf",
    "read_swf_with_header",
    "renumber",
    "run_closed_loop",
    "scale_interarrival",
    "take_prefix",
    "weibull_ks",
    "with_exact_estimates",
    "with_scaled_estimates",
    "workload_stats",
    "write_swf",
]
