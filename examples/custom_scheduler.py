"""Extending the zoo: register your own scheduler and benchmark it.

Run::

    python examples/custom_scheduler.py

The paper expects administrators to "take scheduling algorithms from the
literature and modify them to her needs".  This example registers two
custom rows in the open scheduler registry —

* **SJF**: shortest-(estimated)-job-first ordering, and
* **WF**: widest-first (favouring big parallel jobs), restricted to
  conservative backfilling —

then runs them through the parallel experiment engine next to the paper's
13 grid cells and renders one table over all of them: exactly the
comparison loop an administrator would run before deployment.  Registered
rows need no special handling anywhere — the engine fans them out, caches
them, and the table renderer places them under the right columns.
"""

from typing import Sequence

from repro import paper_configurations, register_row, registered_configurations
from repro.core.job import Job
from repro.experiments.engine import ExperimentEngine
from repro.experiments.tables import format_grid
from repro.schedulers.base import OrderPolicy
from repro.workloads import ctc_like_workload
from repro.workloads.transforms import cap_nodes, renumber

TOTAL_NODES = 256


class KeyedOrderPolicy(OrderPolicy):
    """Order the wait queue by an arbitrary job key (smallest first)."""

    uses_estimates = True

    def __init__(self, key, name: str) -> None:
        self._key = key
        self.name = name
        self._queue: list[Job] = []

    def reset(self) -> None:
        self._queue.clear()

    def enqueue(self, job: Job, now: float) -> None:
        self._queue.append(job)

    def remove(self, job: Job) -> None:
        self._queue.remove(job)

    def ordered(self, now: float) -> Sequence[Job]:
        self._queue.sort(key=self._key)
        return self._queue

    def __len__(self) -> int:
        return len(self._queue)


def sjf_order(total_nodes: int, weight, threshold) -> KeyedOrderPolicy:
    """Shortest estimated runtime first (ignores the regime weight)."""
    return KeyedOrderPolicy(lambda j: (j.estimated_runtime, j.job_id), "sjf")


def widest_first_order(total_nodes: int, weight, threshold) -> KeyedOrderPolicy:
    """Widest job first: big parallel jobs favoured."""
    return KeyedOrderPolicy(lambda j: (-j.nodes, j.job_id), "widest-first")


def main() -> None:
    register_row("sjf", sjf_order, label="SJF")
    register_row("wf", widest_first_order, label="WF", columns=("conservative",))

    jobs = renumber(cap_nodes(ctc_like_workload(1200, seed=21), TOTAL_NODES))
    configs = list(paper_configurations()) + list(
        registered_configurations(rows=("sjf", "wf"))
    )

    # The engine keeps its worker pool between runs; leaving the block
    # stops the workers.
    with ExperimentEngine(
        workers=4,
        cache=".repro-cache",
        on_event=lambda e: e.kind == "cell-finished"
        and print(f"  {e.key}: {e.objective:.4G} in {e.wall_time:.2f}s"),
    ) as engine:
        grid = engine.run(
            jobs, workload_name="CTC-like", total_nodes=TOTAL_NODES, configs=configs
        )
    print()
    print(format_grid(grid))
    stats = engine.stats
    print(
        f"\n{stats.simulated} simulated, {stats.cache_hits} from cache, "
        f"{stats.wall_time:.1f}s wall"
    )

    best = min(grid.cells.values(), key=lambda cell: cell.objective)
    print(f"best ART: {best.config.label}")


if __name__ == "__main__":
    main()
