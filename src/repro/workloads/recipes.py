"""The paper's workload recipes: one generated job stream per artifact.

Each recipe is a function of ``(scale, seed)``.  The experiment specs of
:mod:`repro.experiments.paper` name them, and the engine's workload memo
keeps what they generate: this module's source is part of every memo key
(``GENERATOR_MODULES``), so it holds the recipes and nothing else.

The generators draw with numpy; they are imported where they run, so a
rerun whose workloads all come out of the memo never loads it.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.job import Job
from repro.core.machine import Machine
from repro.workloads.transforms import cap_nodes, renumber, with_exact_estimates


def ctc_workload(scale: int, seed: int = 42) -> list[Job]:
    """The experiment CTC workload: synthetic trace capped at the paper
    machine's 256 nodes."""
    from repro.workloads.ctc import ctc_like_workload

    return renumber(
        cap_nodes(ctc_like_workload(scale, seed=seed), Machine.PAPER_BATCH_NODES)
    )


def _fit_and_sample(source: Sequence[Job], scale: int, seed: int) -> list[Job]:
    from repro.workloads.probabilistic import ProbabilisticModel

    return ProbabilisticModel.fit(source).sample(scale, seed=seed + 1)


def probabilistic_workload(scale: int, seed: int = 42) -> list[Job]:
    """Section 6.2: fit the model on the CTC workload, sample a fresh one."""
    return _fit_and_sample(ctc_workload(scale, seed=seed), scale, seed)


def randomized_workload_at(scale: int, seed: int = 42) -> list[Job]:
    from repro.workloads.randomized import randomized_workload

    return randomized_workload(scale, seed=seed)


def ctc_exact_workload(scale: int, seed: int = 42) -> list[Job]:
    """Table 6: the CTC workload with estimates replaced by actual runtimes."""
    return with_exact_estimates(ctc_workload(scale, seed=seed))
