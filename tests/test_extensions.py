"""Tests for the extension-experiment registry and its CLI integration."""

import pytest

from repro.experiments.extensions import EXTENSIONS, run_extension


class TestRegistry:
    def test_all_ids_present(self):
        assert set(EXTENSIONS) == {
            "ext-gang",
            "ext-combined",
            "ext-drain",
            "ext-bounds",
            "ext-closedloop",
            "ext-meta",
        }

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            run_extension("ext-nonsense")

    @pytest.mark.parametrize("experiment_id", sorted(EXTENSIONS))
    def test_each_extension_runs_tiny(self, experiment_id):
        result = run_extension(experiment_id, scale=200, seed=3)
        assert result.experiment_id == experiment_id
        assert result.report
        assert result.values
        assert isinstance(result.claim_holds, bool)


class TestCLI:
    def test_cli_runs_extension(self, capsys):
        from repro.experiments.cli import main

        code = main(["ext-bounds", "--scale", "150"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ext-bounds" in out
        assert "claim holds" in out

    def test_cli_writes_extension_files(self, tmp_path, capsys):
        from repro.experiments.cli import main

        main(["ext-bounds", "--scale", "150", "--out", str(tmp_path)])
        capsys.readouterr()
        assert (tmp_path / "ext-bounds.txt").exists()

    def test_cli_mixed_paper_and_extension(self, capsys):
        from repro.experiments.cli import main

        code = main(["fig3", "ext-bounds", "--scale", "120"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "ext-bounds" in out

    @pytest.mark.parametrize("ids", [["all", "ext-all"], ["ext-all", "all"]])
    def test_cli_all_and_ext_all_expand_independently(self, ids, capsys):
        from repro.experiments.cli import main
        from repro.experiments.paper import EXPERIMENTS

        assert main([*ids, "--scale", "60", "--no-cache"]) == 0
        banners = [
            line.split()[1]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("=== ")
        ]
        assert set(banners) == set(EXPERIMENTS) | set(EXTENSIONS)

    def test_cli_all_does_not_hide_an_unknown_id(self, capsys):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["all", "bogus", "--scale", "60", "--no-cache"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "unknown experiment ids: bogus" in captured.err
        assert "===" not in captured.out  # rejected before anything ran
