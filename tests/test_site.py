"""The shared site object (:class:`repro.core.site.SiteRun`) and its gates.

Every event loop — the simulator, the closed-loop driver, the metasystem —
starts, finishes and kills jobs through this one object, so its contract
is tested here once: machine, running table, scheduling state and finished
records move together, with and without an incremental state.  The
structure gates at the bottom keep it the *only* place that does so.
"""

import ast
import re
from pathlib import Path

import pytest

from repro.core.job import Job
from repro.core.machine import Machine
from repro.core.site import SiteRun

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def J(job_id, nodes=4, runtime=100.0, estimate=None):
    return Job(job_id=job_id, submit_time=0.0, nodes=nodes, runtime=runtime, estimate=estimate)


@pytest.fixture(params=[True, False], ids=["state", "no-state"])
def site(request):
    return SiteRun(Machine(16), incremental_state=request.param, verify_state=1)


def begin(site, job, now):
    """Queue ``job`` and start it — ``start`` takes jobs out of the queue."""
    site.ctx.now = now
    if site.state is not None:
        site.state.note_enqueued(job.nodes)
    return site.start(job, now)


def deltas(site):
    return site.state.deltas if site.state is not None else None


class TestStartFinish:
    def test_round_trip(self, site):
        item = begin(site, J(1, estimate=150.0), 0.0)
        assert (item.start_time, item.end_time, item.cancelled) == (0.0, 100.0, False)
        assert site.machine.free_nodes == 12
        assert site.running[1].start_time == 0.0
        assert site.ctx.profile.free_at(0.0) == 12
        assert deltas(site) in (1, None)
        site.ctx.now = 100.0
        assert site.finish(item) is True
        assert site.machine.free_nodes == 16
        assert site.running == {}
        assert site.completed == [item]
        assert site.ctx.profile.free_at(100.0) == 16
        assert deltas(site) in (2, None)
        if site.state is not None:
            assert site.state.queued_count == 0

    def test_stale_completion_is_refused_and_changes_nothing(self, site):
        first = begin(site, J(1), 0.0)
        site.ctx.now = 10.0
        site.kill(1, 10.0)
        rerun = begin(site, J(1, runtime=90.0), 10.0)  # same id, later attempt
        before = (site.machine.free_nodes, dict(site.running), deltas(site))
        site.ctx.now = 100.0
        assert site.finish(first) is False
        assert (site.machine.free_nodes, dict(site.running), deltas(site)) == before
        assert site.completed == []
        assert site.finish(rerun) is True
        assert site.completed == [rerun]

    def test_finish_of_unknown_job_is_stale(self, site):
        ghost = begin(SiteRun(Machine(16)), J(9), 0.0)
        assert site.finish(ghost) is False

    def test_kill_records_partial_execution(self, site):
        begin(site, J(2, nodes=8), 5.0)
        site.ctx.now = 30.0
        record = site.kill(2, 30.0)
        assert (record.start_time, record.end_time, record.cancelled) == (5.0, 30.0, True)
        assert record.job.job_id == 2
        assert site.machine.free_nodes == 16 and site.running == {}
        assert site.completed == []  # filing is the caller's decision
        site.record(record)
        assert site.completed == [record]

    def test_estimate_limit_shortens_the_record(self):
        for incremental in (True, False):
            site = SiteRun(
                Machine(16), incremental_state=incremental, cancel_over_limit=True
            )
            over = begin(site, J(1, runtime=100.0, estimate=60.0), 0.0)
            assert (over.end_time, over.cancelled) == (60.0, True)
            within = begin(site, J(2, runtime=50.0, estimate=60.0), 0.0)
            assert (within.end_time, within.cancelled) == (50.0, False)
            unknown = begin(site, J(3, runtime=70.0), 0.0)
            assert (unknown.end_time, unknown.cancelled) == (70.0, False)

    def test_overcommit_raises(self, site):
        begin(site, J(1, nodes=12), 0.0)
        with pytest.raises(ValueError, match="are free"):
            begin(site, J(2, nodes=8), 0.0)


class TestCapacity:
    def test_outage_round_trip(self, site):
        site.ctx.now = 10.0
        site.capacity_down(50.0, 6)
        assert site.machine.free_nodes == 10
        assert site.outages == [(50.0, 6)]
        assert site.ctx.profile.free_at(10.0) == 10
        assert site.ctx.profile.free_at(50.0) == 16
        site.ctx.now = 50.0
        site.capacity_up(50.0, 6)
        assert site.machine.free_nodes == 16 and site.outages == []


# -- structure gates ------------------------------------------------------------


class TestOneRunCore:
    def test_state_commits_and_context_construction_live_in_the_site_module(self):
        """The grep gate: what a start and a release commit to the
        scheduling state, and the context schedulers read, exist once."""
        pattern = re.compile(r"\.on_(?:start|release)\(|\bSchedulerContext\(")
        offenders = []
        for path in SRC.rglob("*.py"):
            if path.name == "site.py" and path.parent.name == "core":
                continue
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
                stripped = line.strip()
                if stripped.startswith("#") or stripped.startswith("def "):
                    continue
                if pattern.search(stripped):
                    offenders.append(f"{path.relative_to(SRC)}:{number}: {stripped}")
        assert not offenders, offenders

    def test_only_the_run_asks_a_scheduler_what_to_start(self):
        """The grep gate: the decision point exists once.  Besides the
        simulator's run, only the two wrappers that delegate to the
        scheduler they wrap call ``select_jobs`` or ``next_wakeup``."""
        pattern = re.compile(r"\.(?:select_jobs|next_wakeup)\(")
        callers = {
            path.relative_to(SRC).as_posix()
            for path in SRC.rglob("*.py")
            if pattern.search(path.read_text(encoding="utf-8"))
        }
        assert "core/simulator.py" in callers
        assert callers <= {
            "core/simulator.py", "experiments/runner.py", "schedulers/drain.py",
        }, callers

    def test_the_gate_pattern_still_matches_the_site_module(self):
        text = (SRC / "core" / "site.py").read_text(encoding="utf-8")
        for call in (".on_start(", ".on_release(", "SchedulerContext("):
            assert call in text, call

    @pytest.mark.parametrize(
        "module",
        sorted(
            path.relative_to(SRC).as_posix()
            for package in ("core", "experiments")
            for path in (SRC / package).rglob("*.py")
        ),
    )
    def test_no_function_longer_than_150_lines(self, module):
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        too_long = [
            f"{node.name}: {node.end_lineno - node.lineno + 1} lines"
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.end_lineno - node.lineno + 1 > 150
        ]
        assert not too_long, too_long

    def test_failure_kill_takes_the_victim_only(self):
        import inspect

        from repro.core.simulator import SimulationRun

        assert list(inspect.signature(SimulationRun._kill_for_failure).parameters) == [
            "self", "victim",
        ]
