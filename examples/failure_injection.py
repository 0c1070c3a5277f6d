"""Failure injection: cancellations, kills and scheduler robustness.

Run::

    python examples/failure_injection.py

Section 2 of the paper notes that a schedule "depends upon other
influences which cannot be controlled by the scheduling system, like the
sudden failure of a hardware component" — and that submitting erroneous
data may make jobs "fail to run".  This example injects user cancellations
and mid-run kills into a CTC-like stream at growing rates and reports how
each scheduler's service for the *surviving* jobs holds up, plus the
capacity reclaimed from killed jobs.
"""

from repro.core.machine import Machine
from repro.core.simulator import ScenarioInputs, Simulator
from repro.metrics import average_response_time
from repro.schedulers import FCFSScheduler, GareyGrahamScheduler
from repro.workloads import ctc_like_workload
from repro.workloads.transforms import cap_nodes, random_cancellations, renumber

TOTAL_NODES = 256
RATES = (0.0, 0.1, 0.25, 0.5)


def main() -> None:
    jobs = renumber(cap_nodes(ctc_like_workload(1200, seed=53), TOTAL_NODES))
    contenders = [
        ("FCFS+EASY", FCFSScheduler.with_easy),
        ("Garey&Graham", GareyGrahamScheduler),
    ]
    print(
        f"{'scheduler':<14}{'cancel rate':>12}{'survivor ART':>14}"
        f"{'withdrawn':>11}{'killed':>8}"
    )
    for label, factory in contenders:
        for rate in RATES:
            cancellations = random_cancellations(jobs, rate, seed=54)
            sim = Simulator(Machine(TOTAL_NODES), factory())
            result = sim.run(
                jobs, scenario=ScenarioInputs(cancellations=cancellations)
            )
            result.schedule.validate(TOTAL_NODES)
            survivors = [
                item for item in result.schedule if not item.cancelled
            ]
            art = (
                sum(i.response_time for i in survivors) / len(survivors)
                if survivors
                else 0.0
            )
            print(
                f"{label:<14}{rate:>12.0%}{art:>14.0f}"
                f"{len(result.cancelled_queued):>11}{len(result.killed_running):>8}"
            )
        print()
    print(
        "Cancellations act as load shedding: survivors are served faster as"
        "\nthe rate grows, and the simulator accounts every withdrawn and"
        "\nkilled job explicitly — no silent disappearances."
    )


if __name__ == "__main__":
    main()
