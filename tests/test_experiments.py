"""Tests for the experiment harness (runner, tables, paper specs, CLI)."""

import pytest

from repro.experiments.paper import (
    EXPERIMENTS,
    PAPER_TABLE1,
    PAPER_TABLE3_UNWEIGHTED,
    ctc_workload,
    probabilistic_workload,
    run_experiment,
)
from repro.experiments.runner import TimingScheduler, run_grid
from repro.experiments.tables import (
    agreement_score,
    format_bars,
    format_comparison,
    format_compute_times,
    format_grid,
)
from repro.schedulers.fcfs import FCFSScheduler
from repro.schedulers.registry import SchedulerConfig, paper_configurations
from repro.core.simulator import simulate
from tests.conftest import make_jobs

SMALL_CONFIGS = [
    SchedulerConfig("fcfs", "list"),
    SchedulerConfig("fcfs", "easy"),
    SchedulerConfig("gg", "list"),
]


@pytest.fixture(scope="module")
def small_grid():
    jobs = make_jobs(50, seed=3, max_nodes=48, mean_gap=40.0)
    return run_grid(jobs, workload_name="test", total_nodes=64, configs=SMALL_CONFIGS)


class TestRunner:
    def test_grid_has_all_requested_cells(self, small_grid):
        assert set(small_grid.cells) == {"fcfs/list", "fcfs/easy", "gg/list"}

    def test_reference_cell(self, small_grid):
        assert small_grid.reference.config.key == "fcfs/easy"
        assert small_grid.pct("fcfs/easy") == 0.0

    def test_percentages_relative_to_reference(self, small_grid):
        ref = small_grid.reference.objective
        for key, cell in small_grid.cells.items():
            expected = (cell.objective - ref) / ref * 100.0
            assert small_grid.pct(key) == pytest.approx(expected)

    def test_compute_time_positive(self, small_grid):
        assert all(cell.compute_time > 0 for cell in small_grid.cells.values())

    def test_weighted_grid_uses_awrt(self):
        jobs = make_jobs(30, seed=5, max_nodes=32)
        unweighted = run_grid(jobs, total_nodes=64, weighted=False, configs=SMALL_CONFIGS)
        weighted = run_grid(jobs, total_nodes=64, weighted=True, configs=SMALL_CONFIGS)
        # AWRT magnitudes (area-weighted) dwarf ART ones.
        assert weighted.reference.objective > unweighted.reference.objective

    def test_cells_in_config_order(self):
        jobs = make_jobs(10, seed=1, max_nodes=16)
        grid = run_grid(jobs, total_nodes=64, configs=SMALL_CONFIGS)
        assert list(grid.cells) == [c.key for c in SMALL_CONFIGS]

    def test_timing_scheduler_delegates(self):
        inner = FCFSScheduler.plain()
        timed = TimingScheduler(inner)
        jobs = make_jobs(20, seed=2, max_nodes=16)
        res = simulate(jobs, timed, 64)
        assert len(res.schedule) == 20
        assert timed.elapsed > 0.0
        assert timed.name == inner.name

    def test_timing_scheduler_delegates_cancel_and_wakeup(self):
        from repro.core.simulator import Cancellation, ScenarioInputs

        timed = TimingScheduler(FCFSScheduler.plain())
        jobs = make_jobs(10, seed=3, max_nodes=64, mean_gap=500.0)
        victim = jobs[-1]
        res = simulate(
            jobs, timed, 64,
            scenario=ScenarioInputs(
                cancellations=[Cancellation(time=victim.submit_time + 1e-3,
                                            job_id=victim.job_id)]
            ),
        )
        # If the victim was still queued, the cancel path was exercised.
        assert victim.job_id in res.cancelled_queued or victim.job_id in res.schedule


class TestTables:
    def test_format_grid_contains_all_cells(self, small_grid):
        text = format_grid(small_grid)
        assert "FCFS" in text and "Garey&Graham" in text
        assert "+0.0%" in text          # the reference cell
        assert "—" in text              # missing cells rendered as dashes

    def test_format_compute_times(self, small_grid):
        text = format_compute_times(small_grid)
        assert "Listscheduler" in text
        assert "s " in text

    def test_format_bars(self, small_grid):
        text = format_bars(small_grid)
        assert "#" in text
        assert "FCFS + Listscheduler" in text

    def test_format_comparison(self, small_grid):
        paper = {"fcfs/list": 100.0, "fcfs/easy": 50.0, "gg/list": 40.0}
        text = format_comparison(small_grid, paper)
        assert "paper" in text and "measured" in text
        assert "+100.0%" in text        # fcfs/list paper pct vs reference

    def test_agreement_score_perfect(self, small_grid):
        # Using the measured values themselves as "paper" gives 1.0.
        paper = {k: c.objective for k, c in small_grid.cells.items()}
        assert agreement_score(small_grid, paper) == 1.0

    def test_agreement_score_inverted(self, small_grid):
        paper = {k: -c.objective for k, c in small_grid.cells.items()}
        assert agreement_score(small_grid, paper) == 0.0


class TestPaperSpecs:
    def test_all_artifacts_defined(self):
        for artifact in ("table3", "table4", "table5", "table6", "table7",
                         "table8", "fig3", "fig4", "fig5", "fig6"):
            assert artifact in EXPERIMENTS

    def test_paper_job_counts_match_table1(self):
        assert EXPERIMENTS["table3"].paper_scale == 79_164
        assert EXPERIMENTS["table4"].paper_scale == 50_000
        assert EXPERIMENTS["table5"].paper_scale == 50_000

    def test_paper_values_cover_the_grid(self):
        keys = {c.key for c in paper_configurations()}
        assert set(PAPER_TABLE3_UNWEIGHTED) == keys

    def test_workload_recipes(self):
        ctc = ctc_workload(300, seed=1)
        assert 0 < len(ctc) <= 300
        assert max(j.nodes for j in ctc) <= 256
        prob = probabilistic_workload(300, seed=1)
        assert len(prob) == 300

    def test_run_experiment_tiny(self):
        result = run_experiment("table3", scale=120, regimes=["unweighted"])
        assert "unweighted" in result.grids
        assert len(result.grids["unweighted"].cells) == 13
        assert 0.0 <= result.agreement["unweighted"] <= 1.0
        assert "paper" in result.reports["unweighted"]

    def test_run_figure_experiment_tiny(self):
        result = run_experiment("fig3", scale=120)
        assert "#" in result.reports["unweighted"]

    def test_run_compute_experiment_tiny(self):
        result = run_experiment("table7", scale=120, regimes=["unweighted"])
        assert "Listscheduler" in result.reports["unweighted"]


class TestCLI:
    def test_cli_runs(self, capsys):
        from repro.experiments.cli import main

        code = main(["fig3", "--scale", "100"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "#" in out

    def test_cli_rejects_unknown(self):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["tableX"])

    @pytest.mark.parametrize(
        "flag, value",
        [("--scale", "0"), ("--scale", "-5"), ("--workers", "0")],
    )
    def test_cli_rejects_degenerate_numbers(self, flag, value, tmp_path, capsys):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["table3", flag, value, "--cache-dir", str(tmp_path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"{flag} must be >= 1" in err
        assert "Traceback" not in err

    DELETED_FLAGS = [
        ("--nodes", "128"),
        ("--cancellation-rate", "0.05"),
        ("--failure-mtbf", "40000"),
        ("--failure-mttr", "3600"),
        ("--recovery", "resubmit"),
        ("--scenario-seed", "7"),
    ]

    @pytest.mark.parametrize(
        "flag, value", DELETED_FLAGS, ids=[flag for flag, _ in DELETED_FLAGS]
    )
    def test_cli_rejects_deleted_flags(self, flag, value, capsys):
        """The machine is the paper's and a scenario is a spec file: the
        flags that spelled them otherwise are gone, help and all."""
        from repro.experiments.cli import _build_parser, main

        assert flag not in _build_parser().format_help()
        with pytest.raises(SystemExit) as exit_info:
            main(["table3", flag, value])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_cli_profile_cell_rejects_a_bad_scenario(self, tmp_path, capsys):
        """A spec that does not parse is a usage error for every command,
        --profile-cell included, never a traceback."""
        from repro.experiments.cli import main

        bad = tmp_path / "bad.json"
        for payload in (
            '{"components": [{"kind": "no-such-kind"}]}',
            '{"components": 5}',
            '{"components": [5]}',
            '{"seed": null}',
        ):
            bad.write_text(payload)
            for argv in (
                ["table3", "--scale", "50", "--no-cache"],
                ["--profile-cell", "ffff", "--cache-dir", str(tmp_path)],
            ):
                with pytest.raises(SystemExit) as exit_info:
                    main([*argv, "--scenario", str(bad)])
                assert exit_info.value.code == 2, payload
                err = capsys.readouterr().err
                assert "bad scenario:" in err, payload
                assert "Traceback" not in err

    def test_cli_writes_files(self, tmp_path, capsys):
        from repro.experiments.cli import main

        main(["fig3", "--scale", "100", "--out", str(tmp_path)])
        capsys.readouterr()
        assert (tmp_path / "fig3_unweighted.txt").exists()

    def test_cli_profile_cell(self, tmp_path, capsys):
        """--profile-cell finds a journaled cell by fingerprint prefix,
        reproduces the fingerprint from the manifest recipe, and prints
        the per-phase breakdown — for a healthy cell and for one that ran under a scenario (whose digest,
        failure trace and recovery spec all enter the fingerprint)."""
        import json
        from pathlib import Path

        from repro.experiments.cli import main

        scenario_flags = [
            "--scenario",
            str(Path(__file__).parent / "data" / "failures_resubmit.json"),
        ]
        for name, flags in (("healthy", []), ("scenario", scenario_flags)):
            cache_dir = tmp_path / name
            common = ["--scale", "150", "--cache-dir", str(cache_dir), *flags]
            assert main(["table3", *common]) == 0
            capsys.readouterr()
            fingerprint = None
            for journal in sorted((cache_dir / "runs").glob("*.jsonl")):
                for line in journal.read_text().splitlines():
                    record = json.loads(line)
                    if record.get("fp"):
                        fingerprint = record["fp"]
                        break
                if fingerprint:
                    break
            assert fingerprint is not None
            code = main(["--profile-cell", fingerprint[:12], *common])
            out = capsys.readouterr().out
            assert code == 0, name
            assert fingerprint in out
            assert "phase_seconds:" in out
            for phase in ("total", "decide", "events", "commit"):
                assert phase in out
            if flags:
                # Without the scenario file the reconstruction must fail
                # loudly rather than profile a different cell.
                code = main(
                    [
                        "--profile-cell", fingerprint[:12],
                        "--scale", "150", "--cache-dir", str(cache_dir),
                    ]
                )
                assert code == 1
                assert "do not reproduce" in capsys.readouterr().err

    def test_cli_profile_cell_of_an_swf_run(self, tmp_path, capsys):
        """A cell of an --swf run rebuilds from the trace: the CTC prefix
        (table3) and the model fitted on it (table4, out of the workload
        memo the run filed)."""
        import json

        from repro.experiments.cli import main
        from repro.workloads.swf import write_swf
        from tests.conftest import make_jobs

        trace = tmp_path / "trace.swf"
        write_swf(make_jobs(150, seed=9, max_nodes=128), trace)
        common = ["--swf", str(trace), "--scale", "100",
                  "--cache-dir", str(tmp_path / "cache")]
        assert main(["table3", "table4", *common]) == 0
        capsys.readouterr()
        fingerprints = {}
        for journal in sorted((tmp_path / "cache" / "runs").glob("*.jsonl")):
            records = [json.loads(line) for line in journal.read_text().splitlines()]
            name = records[0]["workload_name"]
            fingerprints[name] = next(r["fp"] for r in records if r.get("fp"))
        assert len(fingerprints) == 2
        for fingerprint in fingerprints.values():
            code = main(["--profile-cell", fingerprint[:16], *common])
            captured = capsys.readouterr()
            assert code == 0, captured.err
            assert fingerprint in captured.out

    def test_cli_profile_cell_unknown_fingerprint(self, tmp_path, capsys):
        from repro.experiments.cli import main

        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        code = main(["--profile-cell", "ffff", "--cache-dir", str(cache_dir)])
        err = capsys.readouterr().err
        assert code == 1
        assert "no journaled cell" in err

    def test_cli_accepts_swf_trace(self, tmp_path, capsys):
        from repro.experiments.cli import main
        from repro.workloads.swf import write_swf
        from tests.conftest import make_jobs

        trace = tmp_path / "real.swf"
        write_swf(make_jobs(150, seed=9, max_nodes=128), trace)
        code = main(["fig3", "--scale", "120", "--swf", str(trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig3" in out


class TestSourceTraceOverride:
    def test_ctc_experiments_use_prefix(self):
        from tests.conftest import make_jobs

        trace = make_jobs(200, seed=10, max_nodes=300)
        result = run_experiment(
            "table3", scale=80, regimes=["unweighted"], source_trace=trace
        )
        # 80-job prefix of the trace, jobs wider than 256 dropped.
        assert result.grids["unweighted"].n_jobs <= 80

    def test_probabilistic_fits_on_trace(self):
        from tests.conftest import make_jobs

        trace = make_jobs(200, seed=11, max_nodes=128)
        result = run_experiment(
            "table4", scale=100, regimes=["unweighted"], source_trace=trace
        )
        assert result.grids["unweighted"].n_jobs == 100

    def test_randomized_ignores_trace(self):
        from tests.conftest import make_jobs

        trace = make_jobs(50, seed=12, max_nodes=64)
        with_trace = run_experiment(
            "table5", scale=100, regimes=["unweighted"], source_trace=trace
        )
        without = run_experiment("table5", scale=100, regimes=["unweighted"])
        key = "fcfs/easy"
        assert (
            with_trace.grids["unweighted"].cells[key].objective
            == without.grids["unweighted"].cells[key].objective
        )
