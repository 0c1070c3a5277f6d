"""Failure injection: scheduler behaviour under cancellations and kills.

Section 2 reminds the designer that schedules are subject to "the sudden
failure of a hardware component" and jobs that "fail to run".  This
benchmark injects withdrawals/kills at growing rates and asserts the sane
behaviours: accounting is exact (no job lost or double-counted), survivors
are served no worse as load sheds, and every surviving schedule stays
valid.
"""

from repro.core.machine import Machine
from repro.core.simulator import ScenarioInputs, Simulator
from repro.experiments.paper import ctc_workload
from repro.failures import audit_run, mtbf_trace
from repro.schedulers import FCFSScheduler
from repro.workloads.transforms import random_cancellations

NODES = 256
SCALE = 800
RATES = (0.0, 0.2, 0.5)

#: Per-node mean time between failures (seconds), most to least reliable.
MTBF_LEVELS = (120_000.0, 30_000.0)
MTTR = 3_600.0
RECOVERIES = ("abandon", "resubmit", "checkpoint:interval=1800.0,overhead=120.0")


def test_failure_injection_rates(benchmark):
    jobs = ctc_workload(SCALE, seed=131)

    def run():
        out = {}
        for rate in RATES:
            cancellations = random_cancellations(jobs, rate, seed=132)
            sim = Simulator(Machine(NODES), FCFSScheduler.with_easy())
            result = sim.run(
                jobs, scenario=ScenarioInputs(cancellations=cancellations)
            )
            result.schedule.validate(NODES)
            survivors = [i for i in result.schedule if not i.cancelled]
            art = (
                sum(i.response_time for i in survivors) / len(survivors)
                if survivors
                else 0.0
            )
            out[rate] = {
                "art": art,
                "withdrawn": len(result.cancelled_queued),
                "killed": len(result.killed_running),
                "executed": len(result.schedule),
            }
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nFailure injection (FCFS+EASY): survivor service vs cancel rate")
    for rate, row in results.items():
        print(
            f"  rate {rate:>4.0%}  survivor ART {row['art']:>10.0f}  "
            f"withdrawn {row['withdrawn']:>4}  killed {row['killed']:>4}"
        )
    # Exact accounting at every rate.
    for rate, row in results.items():
        assert row["executed"] + row["withdrawn"] == SCALE or (
            row["executed"] + row["withdrawn"] == len(ctc_workload(SCALE, seed=131))
        )
    # Shedding half the load must not make survivors slower.
    assert results[0.5]["art"] <= results[0.0]["art"]
    # Baseline run has no cancellations at all.
    assert results[0.0]["withdrawn"] == 0 and results[0.0]["killed"] == 0


def test_node_failure_rate_sweep(benchmark):
    """Node-failure-rate sweep: MTBF levels x recovery policies.

    Every injected run must keep the books exact (``audit_run``) and fit
    the degraded, time-varying capacity; the healthy baseline anchors the
    comparison.
    """
    jobs = ctc_workload(SCALE, seed=131)
    horizon = max(j.submit_time + j.runtime for j in jobs)

    def run():
        out = {}
        healthy = Simulator(Machine(NODES), FCFSScheduler.with_easy()).run(jobs)
        healthy.schedule.validate(NODES)
        art = sum(i.response_time for i in healthy.schedule) / len(healthy.schedule)
        out[("healthy", "-")] = {
            "art": art,
            "interrupted": 0,
            "lost": 0.0,
            "wasted": 0.0,
        }
        for mtbf in MTBF_LEVELS:
            trace = mtbf_trace(
                total_nodes=NODES,
                horizon=horizon,
                mtbf=mtbf,
                mttr=MTTR,
                seed=47,
                max_nodes_per_failure=16,
            )
            for spec in RECOVERIES:
                sim = Simulator(Machine(NODES), FCFSScheduler.with_easy())
                result = sim.run(
                    jobs, scenario=ScenarioInputs(failures=trace, recovery=spec)
                )
                audit_run(result, jobs, trace, NODES, recovery=spec)
                result.schedule.validate(
                    NODES, capacity=trace.capacity_steps(NODES)
                )
                finished = [i for i in result.schedule if not i.cancelled]
                out[(mtbf, spec)] = {
                    "art": (
                        sum(i.response_time for i in finished) / len(finished)
                        if finished
                        else 0.0
                    ),
                    "interrupted": result.interrupted_jobs,
                    "lost": result.lost_node_seconds,
                    "wasted": result.wasted_node_seconds,
                }
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nNode-failure sweep (FCFS+EASY): service degradation vs MTBF")
    for (mtbf, spec), row in results.items():
        label = "healthy" if mtbf == "healthy" else f"mtbf {mtbf:>9.0f}"
        print(
            f"  {label}  {spec:<42}  ART {row['art']:>10.0f}  "
            f"interrupted {row['interrupted']:>3}  "
            f"wasted {row['wasted']:>12.0f}"
        )
    # Every injected level actually lost capacity and interrupted work.
    for (mtbf, spec), row in results.items():
        if mtbf == "healthy":
            continue
        assert row["lost"] > 0.0
        assert row["interrupted"] > 0
    # Checkpointing never wastes more than full resubmission at equal MTBF.
    for mtbf in MTBF_LEVELS:
        resub = results[(mtbf, "resubmit")]["wasted"]
        ckpt = results[(mtbf, RECOVERIES[2])]["wasted"]
        assert ckpt <= resub
